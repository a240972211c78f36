import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amalgams import amalgam as am
from amalgams import fileio
from amalgams import fingroup as fg
from amalgams import separability as sep
from amalgams.cli import main
from amalgams.errors import AmalgamsError, NotAGroup, NotSubgroup, ParseError
from conftest import make_amalg1, make_c2c3, make_d8_q8, make_s3_amalgam


@pytest.fixture()
def amalg1_file(tmp_path):
    path = tmp_path / "amalg1.txt"
    path.write_text(fileio.serialize_amalgam(make_amalg1()))
    return str(path)


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text(fileio.serialize_amalgam(make_s3_amalgam()))
    return str(path)


@pytest.fixture()
def c2c3_file(tmp_path):
    path = tmp_path / "c2c3.txt"
    path.write_text(fileio.serialize_amalgam(make_c2c3()))
    return str(path)


class TestFileFormats:
    def test_group_round_trip(self):
        for G in (fg.cyclic(6), fg.symmetric3(), fg.quaternion(8)):
            text = fileio.serialize_group(G)
            assert fileio.serialize_group(fileio.parse_group(text)) == text

    def test_amalgam_round_trip(self):
        for spec in (make_amalg1(), make_c2c3(), make_s3_amalgam()):
            text = fileio.serialize_amalgam(spec)
            assert fileio.serialize_amalgam(fileio.parse_amalgam(text)) == text

    def test_word_round_trip(self):
        spec = make_amalg1()
        w = fileio.parse_word(spec, "H:3 K:1")
        assert w.syllables == (("H", 3), ("K", 1))
        assert fileio.render_word(spec, w) == "H:3 K:1"
        assert fileio.parse_word(spec, "").syllables == ()

    def test_word_by_name(self):
        c2 = fg.from_table(2, [[0, 1], [1, 0]], names=["e", "s"])
        import amalgams.amalgam as am
        spec = am.make_amalgam(c2, c2, [0], [0], {0: 0})
        assert fileio.parse_word(spec, "H:s").syllables == (("H", 1),)

    def test_word_round_trip_named(self):
        c4 = fg.cyclic(4)
        named = fg.from_table(4, c4.table, names=["e", "1", "a2", "3"])
        spec = am.make_amalgam(named, c4, [0, 2], [0, 2], {0: 0, 2: 2})
        letters = [(t, e) for t in ("H", "K") for e in range(1, 4)]
        for n in range(4):
            for syllables in itertools.product(letters, repeat=n):
                w = am.word(syllables)
                assert fileio.parse_word(spec, fileio.render_word(spec, w)) == w

    @pytest.mark.parametrize("names", ["e e", "1 0", "e 0", "01 e", "0 -1"])
    def test_ambiguous_names_rejected(self, names):
        with pytest.raises(ParseError):
            fileio.parse_group(f"order 2\ntable\n0 1\n1 0\nnames {names}\n")

    def test_names_numbered_by_own_index_accepted(self):
        G = fileio.parse_group("order 2\ntable\n0 1\n1 0\nnames 0 1\n")
        assert fileio.parse_word(am.make_amalgam(G, G, [0], [0], {0: 0}),
                                 "H:1").syllables == (("H", 1),)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            fileio.parse_group("order 2\n")
        with pytest.raises(ParseError):
            fileio.parse_amalgam("[H]\norder 1\ntable\n0\n")
        with pytest.raises(ParseError):
            fileio.parse_word(make_amalg1(), "X:1")

    @pytest.mark.parametrize("old,new,repeated", [
        ("[phi]\n0 0\n2 2", "[phi]\n0 0\n2 0\n2 2", r"\[phi\] maps element 2"),
        ("elements 0 2\n[B]", "elements 0 2 2\n[B]", r"\[A\] lists element 2"),
        ("elements 0 2\n[phi]", "elements 0 0 2\n[phi]", r"\[B\] lists element 0")],
        ids=["phi", "A", "B"])
    def test_repeated_entry_rejected(self, old, new, repeated):
        """A repeated element used to be accepted, the last phi image
        winning, and the file no longer round-tripped."""
        text = fileio.serialize_amalgam(make_amalg1())
        assert old in text
        with pytest.raises(ParseError, match=repeated):
            fileio.parse_amalgam(text.replace(old, new))

    def test_identity_not_element_zero_rejected(self):
        """The file's indices would no longer name the elements written."""
        text = "order 4\ntable\n2 0 3 1\n0 1 2 3\n3 2 1 0\n1 3 0 2\n"
        with pytest.raises(NotAGroup, match="identity must be element 0"):
            fileio.parse_group(text)

    def test_config_env_override(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("p 2\nmax_target_order 8\n")
        conf = fileio.load_config(cfg, env={"AMALGAMS_MAX_TARGET_ORDER": "16"})
        assert conf.max_target_order == 16 and conf.p == 2
        assert isinstance(conf, sep.SearchBudget)

    @pytest.mark.parametrize("line", ["max_target_ordr 2", "output text"])
    def test_config_unknown_key(self, tmp_path, line):
        cfg = tmp_path / "cfg"
        cfg.write_text("p 2\n" + line + "\n")
        with pytest.raises(ParseError, match="max_conjugator_length"):
            fileio.load_config(cfg, env={})


    @pytest.mark.parametrize("text,env", [
        ("max_target_order\n", {}),
        ("max_target_order eight\n", {}),
        ("max_target_order 8\n", {"AMALGAMS_MAX_TARGET_ORDER": ""}),
        ("max_target_order 8\n", {"AMALGAMS_MAX_TARGET_ORDER": "1.5"}),
        ("max_target_order 2\nmax_target_order 16\n", {}),
    ])
    def test_config_bad_value_or_repeated_key(self, tmp_path, text, env):
        cfg = tmp_path / "cfg"
        cfg.write_text("p 2\n" + text)
        with pytest.raises(ParseError, match="'max_target_order'"):
            fileio.load_config(cfg, env=env)


class TestReduce:
    def test_text(self, amalg1_file, capsys):
        assert main(["reduce", amalg1_file, "H:1 K:2 H:1"]) == 0
        out = capsys.readouterr().out
        assert "length: 0" in out

    def test_json(self, amalg1_file, capsys):
        assert main(["--format", "json", "reduce", amalg1_file, "H:3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["amalgam_part"] == 2
        assert payload["tail"] == "H:1"
        assert payload["length"] == 1

    def test_bad_word_is_input_error(self, amalg1_file, capsys):
        assert main(["reduce", amalg1_file, "H:9"]) == 2

    def test_out_of_range_subgroup_is_input_error(self, amalg1_file, capsys):
        text = Path(amalg1_file).read_text().replace("elements 0 2\n[B]",
                                                "elements 0 9\n[B]")
        Path(amalg1_file).write_text(text)
        assert main(["reduce", amalg1_file, "H:1"]) == 2

    def test_missing_file_is_input_error(self, capsys):
        assert main(["reduce", "/nonexistent/x.txt", "H:1"]) == 2


class TestConjugate:
    def test_conjugate_exit_0(self, amalg1_file, capsys):
        assert main(["conjugate", amalg1_file, "H:1 K:1", "K:1 H:1"]) == 0
        assert "CONJUGATE" in capsys.readouterr().out

    def test_not_conjugate_exit_1(self, amalg1_file, capsys):
        assert main(["conjugate", amalg1_file, "H:1", "H:3"]) == 1
        assert "NOT-CONJUGATE" in capsys.readouterr().out

    def test_noncentral_requires_general(self, s3_file, capsys):
        assert main(["conjugate", s3_file, "H:1", "H:2"]) == 3
        assert "--general" in capsys.readouterr().err

    def test_noncentral_with_general(self, s3_file, capsys):
        code = main(["conjugate", "--general", s3_file, "H:1", "H:2"])
        assert code in (0, 1)

    def test_conjugator_reported(self, amalg1_file, capsys):
        assert main(["--format", "json", "conjugate", amalg1_file,
                     "H:1 K:1", "K:1 H:1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "CONJUGATE"
        assert payload["conjugator"] == "H:1"


class TestPairs:
    def test_count_and_quotients(self, amalg1_file, capsys):
        assert main(["--format", "json", "pairs", amalg1_file,
                     "-p", "2", "--max-index", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["pairs"])
        listed = {(tuple(e["R"]), tuple(e["S"])) for e in payload["pairs"]}
        assert ((0,), (0,)) in listed
        assert ((0, 2), (0, 2)) in listed
        assert ((0, 1, 2, 3), (0, 1, 2, 3)) in listed
        # each embedded quotient spec parses back
        for e in payload["pairs"]:
            fileio.parse_amalgam(e["quotient_spec"])

    def test_numeric_names_quotients_parse(self, tmp_path, capsys):
        d8_q8 = make_d8_q8()
        H, K = (fg.from_table(G.order, G.table, [str(i) for i in G.elements()])
                for G in (d8_q8.H, d8_q8.K))
        spec = am.make_amalgam(H, K, d8_q8.A.elements, d8_q8.B.elements,
                               dict(d8_q8.phi))
        path = tmp_path / "numeric.txt"
        path.write_text(fileio.serialize_amalgam(spec))
        assert main(["--format", "json", "pairs", str(path),
                     "-p", "2", "--max-index", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] > 1
        for e in payload["pairs"]:
            fileio.parse_amalgam(e["quotient_spec"])

    def test_non_prime_p_is_input_error(self, amalg1_file, capsys):
        assert main(["pairs", amalg1_file, "-p", "4"]) == 2

    @pytest.mark.parametrize("max_index", ["0", "-3"])
    def test_max_index_below_one_is_input_error(self, amalg1_file, capsys,
                                                max_index):
        assert main(["pairs", amalg1_file, "--max-index", max_index]) == 2
        assert "must be positive" in capsys.readouterr().err


class TestSeparate:
    def test_success_writes_certificate(self, amalg1_file, tmp_path, capsys):
        cert = tmp_path / "w.cert"
        assert main(["separate", amalg1_file, "H:1", "K:1",
                     "-o", str(cert)]) == 0
        parsed = fileio.parse_certificate(cert.read_text())
        assert parsed["f"] == "H:1" and parsed["g"] == "K:1"
        target = parsed["target"]
        # re-verify from the certificate alone
        spec = fileio.load_amalgam(amalg1_file)
        w = sep.Witness(target,
                        fg.GroupHom(spec.H, target, parsed["psi_H"]),
                        fg.GroupHom(spec.K, target, parsed["psi_K"]),
                        parsed["strategy"])
        f = fileio.parse_word(spec, parsed["f"])
        g = fileio.parse_word(spec, parsed["g"])
        assert sep.verify_witness(spec, w, f, g, 2)
        assert sep.word_image(w, f) == parsed["images"]["f_image"]
        assert sep.word_image(w, g) == parsed["images"]["g_image"]

    def test_conjugate_inputs_exit_4(self, amalg1_file, tmp_path, capsys):
        assert main(["separate", amalg1_file, "H:1 K:1", "K:1 H:1",
                     "-o", str(tmp_path / "w.cert")]) == 4

    def test_budget_exhausted_exit_5(self, c2c3_file, tmp_path, capsys):
        assert main(["separate", c2c3_file, "K:1", "K:2", "-p", "2",
                     "-o", str(tmp_path / "w.cert")]) == 5
        assert "p-residual proof" in capsys.readouterr().err

    def test_odd_p_with_the_default_budget(self, tmp_path, capsys):
        """The default max_target_order, 16, is an upper bound: with -p 3 it
        admits the 3-groups of order 3 and 9, and the certificate passes."""
        c3 = fg.cyclic(3)
        amalgam = tmp_path / "c3_c3.txt"
        amalgam.write_text(fileio.serialize_amalgam(
            am.make_amalgam(c3, c3, [0], [0], {0: 0})))
        cert = tmp_path / "w.cert"
        assert main(["separate", str(amalgam), "H:1", "K:1", "-p", "3",
                     "-o", str(cert)]) == 0
        assert main(["verify", str(amalgam), str(cert)]) == 0
        assert "p = 3" in capsys.readouterr().out

    def test_config_file(self, amalg1_file, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("max_target_order 8\n")
        assert main(["separate", amalg1_file, "H:1", "K:1",
                     "--config", str(cfg),
                     "-o", str(tmp_path / "w.cert")]) == 0

    @pytest.mark.parametrize("line,code", [
        ("max_target_order 2", 5), ("max_target_ordr 2", 2), ("output text", 2),
    ])
    def test_config_keys_checked(self, amalg1_file, tmp_path, capsys,
                                 line, code):
        """A misspelt key would otherwise leave max_target_order at 16,
        where an order-4 target separates "" from H:2."""
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert main(["separate", amalg1_file, "", "H:2", "--config", str(cfg),
                     "-o", str(tmp_path / "w.cert")]) == code
        err = capsys.readouterr().err
        assert ("unknown config key" in err) == (code == 2)
        assert "Traceback" not in err


    @pytest.mark.parametrize("text,env", [
        ("max_target_order\n", {}),
        ("max_target_order 8\n", {"AMALGAMS_MAX_TARGET_ORDER": "x"}),
        ("max_target_order 2\nmax_target_order 16\n", {}),
    ])
    def test_config_bad_value_or_repeated_key(self, amalg1_file, tmp_path,
                                              capsys, monkeypatch, text, env):
        """Exit 2 with the key named: a repeated key used to let its last
        value win silently, here order 16, which separates "" from H:2."""
        for var, val in env.items():
            monkeypatch.setenv(var, val)
        cfg = tmp_path / "cfg"
        cfg.write_text(text)
        assert main(["separate", amalg1_file, "", "H:2", "--config", str(cfg),
                     "-o", str(tmp_path / "w.cert")]) == 2
        err = capsys.readouterr().err
        assert "'max_target_order'" in err and "Traceback" not in err
        assert not (tmp_path / "w.cert").exists()


class TestVerify:
    """`amalgams verify` re-checks a certificate from the two files alone."""

    @pytest.fixture()
    def cert(self, amalg1_file, tmp_path, capsys):
        path = tmp_path / "w.cert"
        assert main(["separate", amalg1_file, "H:1", "K:1", "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_separate_then_verify(self, amalg1_file, cert, capsys):
        assert main(["verify", amalg1_file, str(cert)]) == 0
        assert capsys.readouterr().out.startswith("VERIFIED")
        assert main(["--format", "json", "verify", amalg1_file, str(cert)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "VERIFIED" and payload["p"] == 2

    @pytest.mark.parametrize("old,new", [
        ("[psi_K]\n0 1 0 1", "[psi_K]\n0 0 0 0"),  # a hom that does not separate
        ("[psi_K]\n0 1 0 1", "[psi_K]\n0 1 1 1"),  # not a hom
        ("g_image 1", "g_image 0"),                # recorded image is wrong
        ("g_class_rep 1", "g_class_rep 0")])
    def test_tampered_certificate_rejected(self, amalg1_file, cert, capsys,
                                           old, new):
        text = cert.read_text()
        assert old in text
        cert.write_text(text.replace(old, new))
        assert main(["verify", amalg1_file, str(cert)]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("REJECTED") and "Traceback" not in err

    def test_extra_psi_line_is_malformed(self, amalg1_file, cert, capsys):
        """A second [psi_K] line used to be ignored, so the first one was
        checked as the witness and rejected (exit 1)."""
        text = cert.read_text()
        bad = text.replace("[psi_K]\n", "[psi_K]\n0 0 0 0\n")
        with pytest.raises(ParseError, match=r"\[psi_K\] must be a single line"):
            fileio.parse_certificate(bad)
        cert.write_text(bad)
        assert main(["verify", amalg1_file, str(cert)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_target_order_not_a_prime_power(self, amalg1_file, cert, capsys):
        text = cert.read_text()
        trivial = "order 1\ntable\n0\n[psi_H]\n0 0 0 0\n[psi_K]\n0 0 0 0\n"
        start, end = text.index("order 2"), text.index("[images]")
        cert.write_text(text[:start] + trivial + text[end:])
        assert main(["verify", amalg1_file, str(cert)]) == 1


class TestPi1:
    def test_amalgam_graph_presentation(self, tmp_path, capsys):
        c4 = fg.cyclic(4)
        c2 = fg.cyclic(2)
        (tmp_path / "c4.grp").write_text(fileio.serialize_group(c4))
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(c2))
        (tmp_path / "graph.txt").write_text(
            "[vertex u]\ngroup c4.grp\n"
            "[vertex v]\ngroup c4.grp\n"
            "[edge e0 u v]\ngroup c2.grp\nrho 0 2\ntau 0 2\n")
        assert main(["--format", "json", "pi1",
                     str(tmp_path / "graph.txt")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "u_g1" in payload["generators"]
        assert [["u_g2", 1], ["v_g2", -1]] in payload["relators"]

    def test_loop_graph_stable_letter(self, tmp_path, capsys):
        c2 = fg.cyclic(2)
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(c2))
        (tmp_path / "loop.txt").write_text(
            "[vertex u]\ngroup c2.grp\n"
            "[edge e0 u u]\ngroup c2.grp\nrho 0 1\ntau 0 1\n")
        assert main(["--format", "json", "pi1",
                     str(tmp_path / "loop.txt")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "t_e0" in payload["generators"]

    def test_edges_named_like_inverses_are_loops(self, tmp_path, capsys):
        """No inverse edge is generated, so e0bar is a name like any other."""
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(fg.cyclic(2)))
        (tmp_path / "loops.txt").write_text(
            "[vertex u]\ngroup c2.grp\n"
            "[edge e0 u u]\ngroup c2.grp\nrho 0 1\ntau 0 1\n"
            "[edge e0bar u u]\ngroup c2.grp\nrho 0 1\ntau 0 1\n")
        assert main(["pi1", str(tmp_path / "loops.txt")]) == 0
        assert capsys.readouterr().out.startswith("< u_g1 t_e0 t_e0bar |\n")

    def test_bad_graph_is_input_error(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("[vertex u]\ngroup missing.grp\n")
        assert main(["pi1", str(tmp_path / "bad.txt")]) == 2

    @pytest.mark.parametrize("text,error", [
        # vertex section without a group line
        ("[vertex u]\ngroup c2.grp\n[vertex v]\n", ParseError),
        # edge section without a tau line
        ("[vertex u]\ngroup c2.grp\n[edge e0 u u]\ngroup c2.grp\nrho 0 1\n",
         ParseError),
        # edge naming an unknown vertex
        ("[vertex u]\ngroup c2.grp\n"
         "[edge e0 u w]\ngroup c2.grp\nrho 0 1\ntau 0 1\n", ParseError),
        # edge image outside the vertex group: rho is not a homomorphism,
        # which make_group_graph checks for files and library callers alike
        ("[vertex u]\ngroup c2.grp\n"
         "[edge e0 u u]\ngroup c2.grp\nrho 0 7\ntau 0 1\n", NotSubgroup),
        # no vertex at all
        ("", ParseError),
        # headers with too few words
        ("[vertex]\ngroup c2.grp\n", ParseError),
        ("[]\ngroup c2.grp\n", ParseError),
        ("[vertex u]\ngroup c2.grp\n[edge e0 u]\ngroup c2.grp\n"
         "rho 0 1\ntau 0 1\n", ParseError),
        # one vertex under two spellings of its header
        ("[vertex u]\ngroup c2.grp\n[vertex  u]\ngroup c2.grp\n", ParseError),
        # one header twice, the second section empty
        ("[vertex u]\ngroup c2.grp\n[vertex u]\n", ParseError),
        # tokens after the group file's path
        ("[vertex u]\ngroup c2.grp extra junk\n", ParseError),
        # a key the section does not define
        ("[vertex u]\ngroup c2.grp\nweight 3\n", ParseError),
        ("[vertex u]\ngroup c2.grp\n[edge e0 u u]\ngroup c2.grp\n"
         "rho 0 1\ntau 0 1\ncolour red\n", ParseError),
    ], ids=["vertex-no-group", "edge-no-tau", "unknown-vertex", "bad-image",
            "empty", "vertex-no-name", "empty-header", "edge-no-term",
            "vertex-twice", "vertex-header-repeated", "group-extra-tokens",
            "vertex-unknown-key", "edge-unknown-key"])
    def test_malformed_graph_exits_2(self, tmp_path, text, error):
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(fg.cyclic(2)))
        (tmp_path / "graph.txt").write_text(text)
        with pytest.raises(error):
            fileio.load_group_graph(tmp_path / "graph.txt")
        src = str(Path(fileio.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "amalgams.cli", "pi1",
             str(tmp_path / "graph.txt")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("names", ["e a a a3", "e 2 a2 a3", "1 a a2 a3"],
                         ids=["duplicate", "other-index", "index-1-at-0"])
def test_ambiguous_names_exit_2(tmp_path, names):
    c4 = fg.cyclic(4)
    named = fg.from_table(4, c4.table, names=["e", "a", "a2", "a3"])
    text = fileio.serialize_amalgam(
        am.make_amalgam(named, c4, [0, 2], [0, 2], {0: 0, 2: 2}))
    path = tmp_path / "amalgam.txt"
    path.write_text(text.replace("names e a a2 a3", f"names {names}"))
    src = str(Path(fileio.__file__).resolve().parents[1])
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "amalgams.cli", "pairs", str(path),
         "--max-index", "4"],
        env=dict(os.environ, PYTHONPATH=env_path), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "input error" in proc.stderr and "Traceback" not in proc.stderr


def test_identity_not_element_zero_exits_2(tmp_path):
    """C4 written with its identity at index 1; [A] holds the identity and
    the involution as written."""
    c4 = "order 4\ntable\n2 0 3 1\n0 1 2 3\n3 2 1 0\n1 3 0 2\n"
    path = tmp_path / "amalgam.txt"
    path.write_text(f"[H]\n{c4}[K]\n{c4}[A]\nelements 1 2\n"
                    "[B]\nelements 1 2\n[phi]\n1 1\n2 2\n")
    src = str(Path(fileio.__file__).resolve().parents[1])
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "amalgams.cli", "pairs", str(path)],
        env=dict(os.environ, PYTHONPATH=env_path), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "identity must be element 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def _damaged(text, mutations, optional=("names ",)):
    """Named variants of a valid file that must all be rejected: every
    proper prefix, every file with one line deleted (except optional
    lines), and each (old, new) replacement in ``mutations``."""
    body = text.rstrip("\n")
    lines = body.split("\n")
    for i in range(len(body)):
        yield f"cut at {i}", body[:i]
    for i, ln in enumerate(lines):
        if not ln.startswith(optional):
            yield f"line {i} deleted", "\n".join(lines[:i] + lines[i + 1:])
    for old, new in mutations:
        assert old in text, old
        yield f"{old!r} -> {new!r}", text.replace(old, new, 1)


class TestMalformedFiles:
    """Damaged group, amalgam and certificate files are input errors: the
    CLI exits 2 with a message and no traceback, and the certificate parser
    raises a library error rather than a KeyError or IndexError."""

    @staticmethod
    def _named_amalgam_text():
        c4 = fg.cyclic(4)
        named = fg.from_table(4, c4.table, names=["e", "a", "a2", "a3"])
        return fileio.serialize_amalgam(
            am.make_amalgam(named, c4, [0, 2], [0, 2], {0: 0, 2: 2}))

    def _assert_input_error(self, capsys, argv, label):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, f"{label}: exit {code}"
        assert "input error" in err and "Traceback" not in err, label

    def test_group_files(self, tmp_path, capsys):
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(fg.cyclic(2)))
        graph = tmp_path / "graph.txt"
        graph.write_text("[vertex u]\ngroup c4.grp\n"
                         "[edge e0 u u]\ngroup c2.grp\nrho 0 2\ntau 0 2\n")
        text = fileio.serialize_group(fg.cyclic(4))
        (tmp_path / "c4.grp").write_text(text)
        assert main(["pi1", str(graph)]) == 0
        capsys.readouterr()
        mutations = [("3 0 1 2\n", "3 0 1 2\nnames e a a2\n"),
                     ("3 0 1 2\n", "3 0 1 2\nnames e a a2 a3 a4\n"),
                     ("1 2 3 0", "1 2 x 0"), ("1 2 3 0", "1 2 7 0"),
                     ("order 4", "order x"), ("order 4", "order 0"),
                     ("order 4", "order -4"), ("order 4", "order 4 9"),
                     ("table", "tabel"), ("order 4", "order 4\norder 4"),
                     ("3 0 1 2\n", "3 0 1 2\nnames e a a2 a3\nnames x y z w\n")]
        for label, bad in _damaged(text, mutations):
            (tmp_path / "c4.grp").write_text(bad)
            self._assert_input_error(capsys, ["pi1", str(graph)], label)

    def test_amalgam_files(self, tmp_path, capsys):
        text = self._named_amalgam_text()
        path = tmp_path / "amalgam.txt"
        path.write_text(text)
        assert main(["pairs", str(path), "--max-index", "4"]) == 0
        capsys.readouterr()
        mutations = [("names e a a2 a3", "names e a a2"),
                     ("names e a a2 a3", "names e a a2 a3 a4"),
                     ("elements 0 2\n[B]", "elements 0 9\n[B]"),
                     ("elements 0 2\n[B]", "elements 0 1\n[B]"),
                     ("elements 0 2\n[B]", "elements 0 x\n[B]"),
                     ("elements 0 2\n[B]", "elementsfoo 0 2\n[B]"),
                     ("[phi]\n0 0", "[phi]\n0 0 0"), ("[phi]\n0 0", "[phi]\n0"),
                     ("2 2\n", "2 x\n"), ("2 2\n", "2 1\n"),
                     ("2 2\n", "2 0\n2 2\n"),
                     ("elements 0 2\n[B]", "elements 0 2 2\n[B]"),
                     ("elements 0 2\n[phi]", "elements 0 2 0\n[phi]"),
                     ("[H]", "order 4\n[H]"), ("1 2 3 0", "1 2 3 3"),
                     ("2 2\n", "[phi]\n2 2\n"), ("[phi]", "[junk]\nfoo\n[phi]")]
        for label, bad in _damaged(text, mutations):
            path.write_text(bad)
            self._assert_input_error(
                capsys, ["pairs", str(path), "--max-index", "4"], label)

    CERTIFICATE_MUTATIONS = [
        ("strategy direct", "strategy"), ("[psi_H]\n0", "[psi_H]\nx"),
        ("g_image 1", "g_image x"), ("g_image 1", "g_image 1 2"),
        ("[images]", "[imagez]"), ("order 2", "order 3"),
        ("[images]", "[images]\nfoo 3"),
        ("[images]", "[notes]\nhand made\n[images]")]

    def _certificate_text(self):
        spec = fileio.parse_amalgam(self._named_amalgam_text())
        f, g = am.word([("H", 1)]), am.word([("K", 1)])
        return fileio.serialize_certificate(
            spec, sep.search_witness(spec, f, g, sep.SearchBudget()), f, g)

    def test_certificate_files(self, tmp_path):
        text = self._certificate_text()
        assert fileio.parse_certificate(text)["images"]["g_image"] == 1
        for label, bad in _damaged(text, self.CERTIFICATE_MUTATIONS):
            with pytest.raises(AmalgamsError) as exc:
                fileio.parse_certificate(bad)
            assert exc.type in (ParseError, NotAGroup), label

    def test_repeated_key_rejected(self, tmp_path, capsys):
        """A second f_image or rho line used to win silently."""
        text = self._certificate_text()
        with pytest.raises(ParseError, match="'f_image' given twice"):
            fileio.parse_certificate(
                text.replace("[images]\n", "[images]\nf_image 0\n"))
        (tmp_path / "c2.grp").write_text(fileio.serialize_group(fg.cyclic(2)))
        graph = tmp_path / "graph.txt"
        graph.write_text("[vertex u]\ngroup c2.grp\n[edge e0 u u]\n"
                         "group c2.grp\nrho 0 1\nrho 0 0\ntau 0 1\n")
        with pytest.raises(ParseError, match="'rho' given twice"):
            fileio.load_group_graph(graph)
        self._assert_input_error(capsys, ["pi1", str(graph)], "rho twice")

    def test_certificate_files_through_verify(self, tmp_path, capsys):
        amalgam, cert = tmp_path / "amalgam.txt", tmp_path / "w.cert"
        amalgam.write_text(self._named_amalgam_text())
        text = self._certificate_text()
        cert.write_text(text)
        assert main(["verify", str(amalgam), str(cert)]) == 0
        capsys.readouterr()
        for label, bad in _damaged(text, self.CERTIFICATE_MUTATIONS):
            cert.write_text(bad)
            self._assert_input_error(capsys, ["verify", str(amalgam), str(cert)],
                                     label)
