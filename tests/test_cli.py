import json
import re

import pytest

from helpers import write_shg
from zolab.cli import main
from zolab.hypercore import Hypergraph, parse_shg


@pytest.fixture()
def shg_files(tmp_path):
    edge = tmp_path / "edge.shg"
    write_shg(str(edge), Hypergraph.make(3, range(1, 4), [(1, 2, 3)]))
    h1 = tmp_path / "h1.shg"
    write_shg(str(h1), Hypergraph.make(3, range(1, 5), [(1, 2, 3), (3, 4, 1)]))
    h2 = tmp_path / "h2.shg"
    write_shg(str(h2), Hypergraph.make(3, range(1, 7),
                                       [(1, 2, 3), (3, 4, 5), (5, 6, 1)]))
    bare = tmp_path / "bare.shg"
    write_shg(str(bare), Hypergraph.make(3, range(1, 4), []))
    vertex = tmp_path / "vertex.shg"
    vertex.write_text("s 3 n 1\n")
    return {"edge": str(edge), "h1": str(h1), "h2": str(h2),
            "bare": str(bare), "vertex": str(vertex), "dir": tmp_path}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_density_golden(shg_files, capsys):
    code, payload = run_json(capsys, ["density", shg_files["edge"]])
    assert code == 0
    assert payload == {"num": 1, "den": 3}


def test_balance(shg_files, capsys):
    code, payload = run_json(capsys, ["balance", shg_files["h1"]])
    assert code == 0
    assert payload["strictly_balanced"] is True
    assert payload["max_density"] == {"num": 1, "den": 2}


def test_bounds_max_candidates(capsys):
    code, payload = run_json(capsys, ["bounds", "--s", "3", "--k", "5",
                                      "--max-candidates"])
    assert code == 0
    assert payload["max_candidates"] == [{"num": 25, "den": 13},
                                         {"num": 27, "den": 14}]


def test_bounds_past_the_digit_limit_prints_nothing(capsys):
    # the integers have more digits than str() converts: in the candidates'
    # JSON, and in the table's notes before any JSON is built
    for argv in (["bounds", "--s", "3", "--k", "20000", "--max-candidates"],
                 ["bounds", "--s", "3", "--k", "20000"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["kind"] == "usage" and "--k 20000 is too large" in error["error"]
    # a domain error keeps its own message
    assert main(["bounds", "--s", "3", "--k", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need k >= s + 1" in json.loads(err)["error"]


def test_bounds_table_and_qk(capsys):
    code, payload = run_json(capsys, ["bounds", "--s", "3", "--k", "10"])
    assert code == 0
    assert any(r["theorem"] == "theorem6" and r["value_num"] == 15
               and r["value_den"] == 8 for r in payload["rows"])
    code, payload = run_json(capsys, ["bounds", "--s", "3", "--k", "5",
                                      "--qk", "31/16"])
    assert code == 0 and payload["in_qk"] is True


def test_game_with_formula(shg_files, capsys):
    code, payload = run_json(capsys, ["game", "--left", shg_files["edge"],
                                      "--right", shg_files["bare"],
                                      "--rounds", "3", "--formula"])
    assert code == 0
    assert payload["winner"] == "spoiler"
    assert payload["formula_verified"] is True
    assert "rules" in payload
    code, payload = run_json(capsys, ["game", "--left", shg_files["h1"],
                                      "--right", shg_files["h1"], "--rounds", "2"])
    assert payload["winner"] == "duplicator"


def test_parse_depth_eval(shg_files, capsys):
    code, payload = run_json(capsys, ["parse", "exists x exists y exists z N(x,y,z)"])
    assert code == 0 and payload["depth"] == 3 and payload["free"] == []
    code, payload = run_json(capsys, ["eval", "--formula",
                                      "exists a exists b exists c N(a,b,c)",
                                      "--host", shg_files["edge"]])
    assert payload["value"] is True
    code, payload = run_json(capsys, ["eval", "--formula", "x = y",
                                      "--host", shg_files["edge"],
                                      "--assign", "x=1", "--assign", "y=1"])
    assert payload["value"] is True


def test_distance_cmd(shg_files, capsys):
    code, payload = run_json(capsys, ["distance", shg_files["h1"], "2", "4"])
    assert payload == {"schema": 1, "distance": 2, "connected": True}


def test_copies_cmd(shg_files, capsys):
    code, payload = run_json(capsys, ["copies", "--motif", shg_files["edge"],
                                      "--host", shg_files["h2"]])
    assert payload["copies"] == 3


def test_classify_pair_cmd(shg_files, capsys):
    code, payload = run_json(capsys, [
        "classify-pair", "--outer", shg_files["edge"],
        "--inner", shg_files["vertex"], "--alpha", "7/4"])
    assert code == 0
    assert payload["class"] == "safe"
    assert payload["f_alpha"] == {"num": 1, "den": 4}


def test_cyclic_and_decompose(shg_files, capsys):
    two = shg_files["dir"] / "pair_inner.shg"
    two.write_text("s 3 n 2\n")
    code, payload = run_json(capsys, ["cyclic", "--outer", shg_files["edge"],
                                      "--inner", str(two), "--m", "2"])
    assert payload["match"]["kind"] == "second_type_edge"
    code, payload = run_json(capsys, ["decompose", shg_files["h2"],
                                      "--m", "3", "--root", "1"])
    assert payload["decomposition"] is not None
    assert len(payload["decomposition"]) == 2


def test_density_commands_answer_past_the_old_caps(capsys, tmp_path):
    from zolab.constructions import theorem6_pair
    w = theorem6_pair(3, 2, 2)  # g has 45 vertices, h 30, 15 difference vertices
    outer, inner = tmp_path / "g6.shg", tmp_path / "h6.shg"
    write_shg(str(outer), w.g)
    write_shg(str(inner), w.h)
    code, payload = run_json(capsys, ["balance", str(inner)])
    assert code == 0
    assert payload["strictly_balanced"] is True
    assert payload["max_density"] == {"num": 8, "den": 15}
    code, payload = run_json(capsys, ["balance", str(outer)])
    assert code == 0
    assert payload["strictly_balanced"] is False
    assert payload["max_density"] == {"num": 8, "den": 15}
    pair = ["--outer", str(outer), "--inner", str(inner)]
    code, payload = run_json(capsys, ["classify-pair", *pair, "--alpha", "15/8"])
    assert code == 0
    assert payload["class"] == "neutral"
    code, payload = run_json(capsys, ["cyclic", *pair, "--m", "2"])
    assert code == 0
    assert payload["match"] is None


def test_construct_commands(shg_files, capsys, tmp_path):
    out = tmp_path / "w.shg"
    code, payload = run_json(capsys, ["construct", "theorem8", "--s", "3",
                                      "--k", "4", "--out", str(out)])
    assert code == 0
    assert payload["alpha"] == {"num": 9, "den": 5}
    g = parse_shg(out.read_text())
    assert g.num_vertices == 9 and g.num_edges == 5
    code, payload = run_json(capsys, ["construct", "theorem6", "--s", "3",
                                      "--l", "1", "--m", "2"])
    assert payload["alpha"] == {"num": 7, "den": 4}
    assert payload["h"]["density"] == {"num": 4, "den": 7}


def test_sample_scan_probe(shg_files, capsys, tmp_path):
    code, payload = run_json(capsys, ["sample", "--s", "3", "--n", "10",
                                      "--p", "0.2", "--seed", "4",
                                      "--out", str(tmp_path / "g.shg")])
    assert code == 0
    g = parse_shg((tmp_path / "g.shg").read_text())
    assert g.num_vertices == 10 and g.num_edges == payload["edges"]

    code, payload = run_json(capsys, ["scan", "--s", "3", "--n", "20",
                                      "--p", "0.3", "--trials", "10",
                                      "--seed", "3", "--motif", shg_files["edge"]])
    assert code == 0
    assert payload["estimates"]["probability"] == 1.0

    csv_path = tmp_path / "probe.csv"
    code, payload = run_json(capsys, ["probe", "--s", "3",
                                      "--alpha-grid", "3/2,5/2", "--n-grid", "20,30",
                                      "--trials", "5", "--seed", "2",
                                      "--motif", shg_files["h1"],
                                      "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "alpha,n,estimate,lo,hi,flagged"
    assert len(lines) == 5


def test_poisson_prop1_cmds(shg_files, capsys, tmp_path):
    code, payload = run_json(capsys, ["poisson", "--s", "3", "--n", "30",
                                      "--trials", "20", "--seed", "6",
                                      "--motif", shg_files["edge"]])
    assert code == 0
    assert payload["tv_distance"] is not None

    from zolab.constructions import theorem6_pair
    w = theorem6_pair(3, 1, 2)
    outer = tmp_path / "outer.shg"
    inner = tmp_path / "inner.shg"
    write_shg(str(outer), w.g)
    write_shg(str(inner), w.h)
    code, payload = run_json(capsys, ["prop1", "--outer", str(outer),
                                      "--inner", str(inner), "--s", "3",
                                      "--n", "40", "--alpha", "7/4",
                                      "--trials", "10", "--seed", "6"])
    assert code == 0
    assert (payload["extra"]["a"], payload["extra"]["a1"], payload["extra"]["a2"]) == (48, 8, 1)


def test_exit_codes(shg_files, capsys, tmp_path):
    big = tmp_path / "big.shg"
    write_shg(str(big), Hypergraph.make(3, range(1, 31), []))
    assert main(["copies", "--motif", str(big), "--host", shg_files["edge"]]) == 3  # capacity
    # nine motifs would pool a 6^9-cell histogram: refused before any trial
    assert main(["poisson", "--s", "3", "--n", "10", "--trials", "2",
                 *["--motif", shg_files["edge"]] * 9]) == 3
    assert main(["density", str(tmp_path / "nope.shg")]) == 2  # usage
    assert main(["eval", "--formula", "x = ", "--host", shg_files["edge"]]) == 2
    # each --assign names a free variable of the formula, once
    capsys.readouterr()
    for assign, named in ((["x=1", "typo=2"], "--assign typo:"), (["x=1", "x=2"], "--assign x ")):
        argv = ["eval", "--formula", "x = x", "--host", shg_files["edge"]]
        assert main([*argv, *(a for v in assign for a in ("--assign", v))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"].startswith(named)
    # a pair's inner graph must lie inside its outer graph: edges, then vertices
    for outer in ("bare", "vertex"):
        assert main(["classify-pair", "--outer", shg_files[outer],
                     "--inner", shg_files["edge"], "--alpha", "7/4"]) == 2
    # an edgeless motif or inner graph has density 0: no threshold n^(-1/rho)
    two = tmp_path / "two.shg"
    two.write_text("s 3 n 2\n")
    capsys.readouterr()
    for argv in (["poisson", "--s", "3", "--n", "10", "--trials", "2",
                  "--motif", shg_files["bare"]],
                 ["prop1", "--outer", str(two), "--inner", shg_files["vertex"], "--s", "3",
                  "--n", "10", "--alpha", "1", "--trials", "2"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        err = json.loads(err)
        assert out == "" and err["kind"] == "usage" and "density 0" in err["error"]
    with pytest.raises(SystemExit) as exc:
        main(["balance"])  # argparse usage error
    assert exc.value.code == 2
    # the sampler's own error in a trial names the trial and the config
    capsys.readouterr()
    assert main(["scan", "--s", "3", "--n", "2", "--p", "0.5", "--trials", "2", "--seed", "1",
                 "--formula", "exists x x = x"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage"
    assert err["error"].startswith("trial 0 of {s=3, n=2, trials=2, seed=1, ")
    assert err["error"].endswith("}: need n >= s, got n=2, s=3")
    # a negative alpha is no edge probability: p = n^(-alpha) > 1
    assert main(["scan", "--s", "3", "--n", "10", "--alpha=-1", "--trials", "2", "--seed", "1",
                 "--motif", shg_files["edge"]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "alpha must be >= 0, got -1",
                                             "kind": "usage"}
    # a property formula with free variables is refused before any trial
    for argv in (["scan", "--s", "3", "--n", "6", "--p", "0.5", "--trials", "2"],
                 ["probe", "--s", "3", "--alpha-grid", "2", "--n-grid", "6", "--trials", "2"]):
        assert main([*argv, "--seed", "1", "--formula", "exists x N(x,y,z)"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "usage"
        assert err["error"] == "a property formula must be closed: free ['y', 'z']"


def test_deep_inputs_exit_3_or_are_cut_short(shg_files, capsys, tmp_path):
    # one vertex a side: the winner is settled within two rounds, not 5000
    one = shg_files["vertex"]
    code, payload = run_json(capsys, ["game", "--left", one, "--right", one,
                                      "--rounds", "5000"])
    assert code == 0 and payload["winner"] == "duplicator" and payload["rounds"] == 5000
    # the formula keeps every round, and re-pebbling nests it 5000 deep
    two = tmp_path / "two.shg"
    two.write_text("s 3 n 2\n")
    for argv in (["game", "--left", one, "--right", str(two), "--rounds", "5000", "--formula"],
                 ["parse", "!" * 3000 + "x = y"]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["kind"] == "capacity" and "recursion limit" in err["error"]


def test_capacity_errors_in_trial_loops_exit_3(shg_files, capsys, tmp_path):
    from zolab.constructions import loose_path, theorem6_pair
    path41 = tmp_path / "p41.shg"
    write_shg(str(path41), loose_path(3, 20))
    assert main(["scan", "--s", "3", "--n", "10", "--alpha", "2", "--trials", "2",
                 "--seed", "1", "--motif", str(path41)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "capacity"
    assert err["error"].startswith("trial 0 of {s=3, n=10, trials=2, seed=1, ")
    w = theorem6_pair(3, 1, 2)
    outer, inner = tmp_path / "outer.shg", tmp_path / "inner.shg"
    write_shg(str(outer), w.g)
    write_shg(str(inner), w.h)
    assert main(["prop1", "--outer", str(outer), "--inner", str(inner), "--s", "3",
                 "--n", "40", "--alpha", "7/4", "--trials", "2", "--seed", "6",
                 "--cap", "16"]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "capacity"


def test_env_var_default_seed(shg_files, capsys, monkeypatch):
    monkeypatch.setenv("ZOLAB_SEED", "77")
    code, payload = run_json(capsys, ["scan", "--s", "3", "--n", "12",
                                      "--p", "0.1", "--trials", "4",
                                      "--motif", shg_files["edge"]])
    assert code == 0 and payload["config"]["seed"] == 77
    code, payload = run_json(capsys, ["scan", "--s", "3", "--n", "12",
                                      "--p", "0.1", "--trials", "4", "--seed", "5",
                                      "--motif", shg_files["edge"]])
    assert payload["config"]["seed"] == 5
    assert payload["config"]["property"].startswith("motif:")


def test_env_seed_is_read_on_every_call(shg_files, capsys, monkeypatch):
    argv = ["scan", "--s", "3", "--n", "12", "--p", "0.1", "--trials", "4",
            "--motif", shg_files["edge"]]
    for seed in (31, 32):
        monkeypatch.setenv("ZOLAB_SEED", str(seed))
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload["config"]["seed"] == seed


def test_removed_spellings_are_usage_errors(capsys):
    for argv in (["depth", "N(x,y,z) & x = y"],
                 ["bounds", "--s", "3", "--k", "10", "--table"],
                 ["extension", "--template-outer", "a.shg", "--template-inner", "b.shg",
                  "--candidate-outer", "c.shg", "--candidate-inner", "d.shg",
                  "--map", "1:1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_bad_env_seed_is_a_usage_error(shg_files, capsys, monkeypatch):
    monkeypatch.setenv("ZOLAB_SEED", "abc")
    for argv in (["bounds", "--s", "3", "--k", "5"],
                 ["scan", "--s", "3", "--n", "12", "--p", "0.1", "--trials", "4",
                  "--motif", shg_files["edge"]]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "usage" and "ZOLAB_SEED" in err["error"]


def test_determinism_of_reports(shg_files, capsys):
    argv = ["scan", "--s", "3", "--n", "15", "--p", "0.1", "--trials", "8",
            "--seed", "11", "--motif", shg_files["edge"]]
    main(argv)
    out1 = capsys.readouterr().out
    main(argv)
    out2 = capsys.readouterr().out
    strip = lambda t: re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', t)
    assert strip(out1) == strip(out2)


def test_negative_rationals_as_their_own_token(shg_files, capsys):
    # argparse reads a lone -2/5 as an option name; every rational option
    # must take it as a value, exactly as it takes --opt=-2/5
    cases = [(["bounds", "--s", "3", "--k", "5"], "--qk", "-2/5"),
             (["classify-pair", "--outer", shg_files["edge"],
               "--inner", shg_files["vertex"]], "--alpha", "-7/4")]
    for argv, option, value in cases:
        joined = run_json(capsys, argv + [f"{option}={value}"])
        split = run_json(capsys, argv + [option, value])
        for code, payload in (joined, split):
            assert code == 0, (option, payload)
            payload.pop("wall_time_s", None)
        assert split == joined, option
    # a sampling experiment refuses a negative alpha; both spellings reach it
    probe = ["probe", "--s", "3", "--n-grid", "8", "--trials", "2", "--seed", "1",
             "--motif", shg_files["edge"]]
    errors = []
    for spelling in (["--alpha-grid=-1/2,3/2"], ["--alpha-grid", "-1/2,3/2"]):
        assert main(probe + spelling) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(json.loads(err)["error"])
    assert errors == ["alpha must be >= 0, got -1/2"] * 2
    for qk in (["--qk", "-2/5"], ["--q", "-2/5"]):  # argparse's abbreviation too
        code, payload = run_json(capsys, ["bounds", "--s", "3", "--k", "5", *qk])
        assert code == 0 and payload == {"alpha": {"num": -2, "den": 5}, "in_qk": False,
                                          "schema": 1}
    with pytest.raises(SystemExit) as exc:  # an option is still no value
        main(["bounds", "--s", "3", "--k", "5", "--qk", "--max-candidates"])
    assert exc.value.code == 2
