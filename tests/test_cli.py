import collections
import contextlib
import difflib
import hashlib
import io
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
import yaml

import zoo
from gogroups import gogfile
from gogroups.cli import build_parser, main
from gogroups.errors import GogError, GogParseError, InvalidStructure
from gogroups.gog import GraphOfGroups, classify, pi1_presentation, presentation_to_text, validate_gog
from gogroups.gogfile import parse_gog, parse_gog_text, serialize_gog
from gogroups.graph import AbstractGraph
from gogroups.groups import FreeGroup, Hom, _ft_generating_set, cyclic_table

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def fixture(name):
    return str(FIXTURES / name)


def digest_runs():
    """(fixture, argv) for every line of the CLI digest file: each
    subcommand, contract and decompose on every orbit, three oracles, and
    reduce and trivial on the commutator of the first two pi1 letters."""
    for path in sorted(FIXTURES.glob("*.gog")):
        g = parse_gog(str(path))
        a, b = (letter.name for letter in pi1_presentation(g).generators[:2])
        commutator = f"{a} {b} {a}^-1 {b}^-1"
        runs = [[name] for name in (
            "validate", "classify", "pi1", "abelianize", "collapse", "recognize-abelian", "rank-bound",
        )]
        runs += [["convert", "--oracle", oracle] for oracle in ("abel", "enum:5000", "free")]
        runs.append(["enumerate", "--cap", "100"])
        for o in g.orbits():
            runs += [["contract", "--edge", o.plus], ["decompose", "--edge", o.plus]]
        runs += [["reduce", "--word", commutator], ["trivial", "--word", commutator]]
        for argv in runs:
            yield path.name, argv + [str(path)]


def digest_line(name, argv):
    """'<fixture> <command>: exit <code> <first 16 hex digits of sha256(stdout)>'."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return f"{name} {' '.join(argv[:-1])}: exit {code} {digest}"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN_CASES = [
    (["pi1", fixture("torus.gog")], "torus-pi1.txt"),
    (["recognize-abelian", fixture("klein.gog")], "klein-recognize.txt"),
    (["convert", "--oracle", "enum:5000", fixture("pushout46.gog")], "pushout46-convert.txt"),
    (["decompose", "--edge", "e", fixture("trefoil.gog")], "trefoil-decompose.txt"),
    (["enumerate", "--cap", "100", fixture("finite-star.gog")], "finite-star-enumerate.txt"),
]


def assert_golden_outputs(capsys):
    for argv, golden in GOLDEN_CASES:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(), golden


def assert_cli_digests():
    expected = (GOLDEN / "cli-digests.txt").read_text().splitlines()
    got = [digest_line(name, argv) for name, argv in digest_runs()]
    changed = [d for d in difflib.ndiff(expected, got) if d[:2] in ("- ", "+ ")]
    assert not changed, "CLI reports differ from tests/golden/cli-digests.txt:\n" + "\n".join(changed)


def nested_anchors(levels):
    """A flow list of ``levels`` anchors, each listing the one before it
    twice: O(levels) bytes of YAML, 2^levels leaves once expanded."""
    items = ["&x0 [a, a]"] + [f"&x{i} [*x{i - 1}, *x{i - 1}]" for i in range(1, levels)]
    return "[" + ", ".join(items) + "]"


# serialize_gog's and cli._flow's layouts
BLOCK_STYLE = {"sort_keys": True, "default_flow_style": None, "width": 100}
FLOW_STYLE = {"default_flow_style": True, "width": 10 ** 6}

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")


class TestParsing:
    def test_fixtures_match_programmatic_constructions(self):
        pairs = [
            ("torus.gog", zoo.torus),
            ("klein.gog", zoo.klein),
            ("bs12.gog", zoo.bs12),
            ("two-loop-trivial.gog", zoo.two_loop_trivial),
            ("amalgam-2-3.gog", zoo.amalgam23),
            ("trefoil.gog", zoo.trefoil),
            ("star3.gog", zoo.star3),
            ("pushout46.gog", zoo.pushout46),
            ("z3f2-diagram.gog", zoo.z3f2),
            ("finite-star.gog", zoo.finite_star),
        ]
        for name, build in pairs:
            parsed = parse_gog(fixture(name))
            built = build()
            assert presentation_to_text(pi1_presentation(parsed)) == presentation_to_text(
                pi1_presentation(built)
            ), name
            assert classify(parsed) == classify(built)

    def test_dyadic_fixtures(self):
        for k in range(2, 6):
            parsed = parse_gog(fixture(f"dyadic-{k}.gog"))
            built = zoo.dyadic(k)
            assert presentation_to_text(pi1_presentation(parsed)) == presentation_to_text(
                pi1_presentation(built)
            )

    def test_roundtrip_canonical(self):
        for name in (
            "torus.gog",
            "klein.gog",
            "pushout46.gog",
            "z3f2-diagram.gog",
            "finite-star.gog",
        ):
            g = parse_gog(fixture(name))
            text = serialize_gog(g)
            again = parse_gog_text(text)
            assert serialize_gog(again) == text, name

    def test_stored_trees_round_trip(self):
        # serialize_gog writes a tree: key for a stored tree; parsing it back
        # must give the same tree and the same bytes
        graphs = zoo.graphs() + zoo.edge_map_graphs()
        stored = [g.replace(tree=zoo.last_first_tree(g)) for g in graphs]
        stored += [zoo.rebased(g) for g in graphs]
        stored.append(zoo.star3().replace(tree=frozenset({"s1", "s2", "s3"})))
        for g in stored:
            text = serialize_gog(g)
            assert "\ntree: [" in text, text
            again = parse_gog_text(text)
            assert again.tree == g.tree and again.base == g.base
            assert serialize_gog(again) == text

    def test_identity_descriptors_on_each_class(self):
        for group, elements in (
            ("{free_abelian: [a, b]}", [(1, 0), (0, 1), (2, -3)]),
            ("{free: [x, y]}", [(1,), (2,), (1, -2, 1)]),
            ("{cyclic: 4, letter: g}", [0, 1, 2, 3]),
            ("{table: {elements: [e, a, b, c], mul: [[0,1,2,3],[1,0,3,2],[2,3,0,1],[3,2,1,0]]}}",
             [0, 1, 2, 3]),
        ):
            g = parse_gog_text(
                f"vertices: {{u: {group}, v: {group}}}\n"
                f"edges: {{e: {{origin: u, terminus: v, group: {group}, fwd: identity, back: identity}}}}\n"
            )
            for half in ("e", "e^-1"):
                h = g.emap[half]
                assert h.src == h.dst and [h.apply(x) for x in elements] == elements, group
            assert classify(g).value == "graph-of-groups"
            assert serialize_gog(parse_gog_text(serialize_gog(g))) == serialize_gog(g)

    def test_vector_and_integer_image_entries(self):
        edge = ("vertices: {{v: {vertex}}}\nedges: {{e: {{origin: v, terminus: v,"
                " group: {{free: [x, y]}}, fwd: {{images: {images}}}, back: {{images: {images}}}}}}}\n")
        g = parse_gog_text(edge.format(vertex="{free_abelian: [a, b]}", images="[[1, 0], [2, -1]]"))
        assert [g.emap["e"].apply(x) for x in ((1,), (2,), (1, 2, -1))] == [(1, 0), (2, -1), (2, -1)]
        text = serialize_gog(g)
        assert "images:\n      - [1, 0]\n      - [2, -1]" in text, text
        assert serialize_gog(parse_gog_text(text)) == text
        g = parse_gog_text(edge.format(vertex="{cyclic: 3, letter: g}", images="[1, 2]"))
        assert [g.emap["e"].apply(x) for x in ((1,), (2,), (1, 2))] == [1, 2, 0]
        # images of an infinite source in a table are written as labels
        text = serialize_gog(g)
        assert "images: [g, g2]" in text, text
        assert serialize_gog(parse_gog_text(text)) == text

    def test_serialize_refuses_a_plus_id_ending_in_inverse(self):
        # a record named e stands for the half-edges e and e^-1, so a plus
        # id ending in ^-1 has no record name: stripping the suffix merged
        # the orbits {a^-1, b} and {a, c} into one record a, and wrote a
        # stored tree entry a^-1 that the parser refuses
        z = FreeGroup(1)

        def edges_u_to_v(pairs, tree=None):
            plus = dict(pairs)  # plus id -> its reverse
            bar = {**plus, **{minus: e for e, minus in pairs}}
            graph = AbstractGraph.make(["u", "v"], bar, {e: "u" if e in plus else "v" for e in bar})
            emap = {e: Hom.identity(z) for e in bar}
            g = GraphOfGroups.make(graph, {"u": z, "v": z}, dict.fromkeys(plus, z), emap, tree=tree)
            assert validate_gog(g).ok and "a^-1" in {o.plus for o in g.orbits()}
            return g

        for g in (edges_u_to_v([("a^-1", "b"), ("a", "c")]),
                  edges_u_to_v([("a^-1", "b")], tree={"a^-1"})):
            with pytest.raises(InvalidStructure) as info:
                serialize_gog(g)
            assert str(info.value) == "cannot serialize edge a^-1: edge names must not end with ^-1"

    def test_tree_identity_and_image_errors_exit_two(self, capsys, tmp_path):
        edge = ("vertices: {u: {cyclic: 2}, v: {cyclic: 2}}\n"
                "edges: {e: {origin: u, terminus: v, group: %s, fwd: %s, back: %s}}\n")
        cases = [
            (edge % ("{cyclic: 2}", "identity", "identity") + "tree: e\n",
             ".tree] tree must be a list of edge names"),
            (edge % ("{cyclic: 2}", "identity", "identity") + "tree: [e, f]\n",
             ".tree] unknown tree edge f"),
            (edge % ("{free_abelian: [c]}", "identity", "{images: [1]}"),
             ".edges.e.fwd] identity needs source and target in the same class"),
            (edge % ("{cyclic: 4}", "identity", "identity"),
             ".edges.e.fwd] identity needs identical multiplication tables"),
            ("vertices: {v: {free: [a, b]}}\nedges: {e: {origin: v, terminus: v,"
             " group: {free: [c]}, fwd: identity, back: identity}}\n",
             ".edges.e.fwd] identity needs equal ranks"),
            (edge % ("{free: [c]}", "{images: [[1]]}", "{images: [1]}"),
             ".edges.e.fwd] vector images only target free abelian groups"),
            (edge % ("{free: [c]}", "{images: [true]}", "{images: [1]}"),
             ".edges.e.fwd] invalid image entry"),
        ]
        for i, (text, message) in enumerate(cases):
            path = tmp_path / f"bad{i}.gog"
            path.write_text(text)
            code, out, err = run(capsys, "pi1", str(path))
            assert (code, out, err) == (2, "", f"parse error: [{path}{message}\n"), text

    def test_missing_back_map_names_the_edge(self):
        bad = """
vertices:
  v: {free_abelian: [a]}
edges:
  t:
    origin: v
    terminus: v
    group: {free_abelian: [c]}
    fwd: {matrix: [[1]]}
"""
        with pytest.raises(GogParseError) as err:
            parse_gog_text(bad)
        assert "edges.t" in str(err.value) and "back" in str(err.value)

    def test_unknown_vertex_reference(self):
        bad = """
vertices:
  v: {free_abelian: [a]}
edges:
  t:
    origin: v
    terminus: w
    group: {free_abelian: [c]}
    fwd: {matrix: [[1]]}
    back: {matrix: [[1]]}
"""
        with pytest.raises(GogParseError) as err:
            parse_gog_text(bad)
        assert "edges.t.terminus" in str(err.value)

    def test_yaml_syntax_error_carries_line(self):
        text = "vertices:\n  v: {free_abelian: [a]\n"
        with pytest.raises(GogParseError) as err:
            parse_gog_text(text)
        assert err.value.line is not None
        # PyYAML's own message, not libyaml's
        with pytest.raises(yaml.YAMLError) as pyyaml_err:
            yaml.safe_load(text)
        assert str(err.value) == f"[<gog>: line {err.value.line}] not valid YAML: {pyyaml_err.value}"

    @needs_libyaml
    def test_libyaml_grammar_with_pyyaml_fallback(self):
        edge = (
            "vertices:\n  v: {free_abelian: [a]}\n"
            "edges:\n  t:\n    origin: v\n    terminus: v\n"
            "    group: {free_abelian: [c]}\n    fwd:%s\n    back: {matrix: [[1]]}\n"
        )
        # a tab after the colon: libyaml reads it, PyYAML's parser does not
        tab = edge % "\t{matrix: [[1]]}"
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(tab)
        # a flow key without a space after its colon: only PyYAML reads it
        no_space = edge % " {matrix:[[1]]}"
        with pytest.raises(yaml.YAMLError):
            yaml.load(no_space, Loader=yaml.CSafeLoader)
        plain = serialize_gog(parse_gog_text(edge % " {matrix: [[1]]}"))
        for text in (tab, no_space):
            assert serialize_gog(parse_gog_text(text)) == plain
        # libyaml cannot take a lone surrogate; PyYAML's reader refuses it
        with pytest.raises(GogParseError, match="special characters are not allowed"):
            parse_gog_text("vertices: \ud800\n")

    def test_bad_matrix_shape(self):
        bad = """
vertices:
  v: {free_abelian: [a]}
edges:
  t:
    origin: v
    terminus: v
    group: {free_abelian: [c]}
    fwd: {matrix: [[1, 2]]}
    back: {matrix: [[1]]}
"""
        with pytest.raises(GogParseError) as err:
            parse_gog_text(bad)
        assert "edges.t.fwd" in str(err.value)

    def test_non_homomorphism_map_rejected(self):
        bad = """
vertices:
  u: {cyclic: 4, letter: a}
  v: {cyclic: 6, letter: b}
edges:
  e:
    origin: u
    terminus: v
    group: {cyclic: 4, letter: c}
    fwd: {map: [0, 1, 2, 3]}
    back: {map: [0, 1, 0, 1]}
"""
        with pytest.raises(GogParseError) as err:
            parse_gog_text(bad)
        assert "edges.e.back" in str(err.value)


class TestCommands:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", fixture("torus.gog"))
        assert code == 0 and out == "valid\n"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", fixture("pushout46.gog"))
        assert code == 0 and out == "diagram\n"
        code, out, _ = run(capsys, "classify", fixture("dyadic-4.gog"))
        assert code == 0 and out == "graph-of-groups\n"

    def test_trivial_true_false(self, capsys):
        code, out, _ = run(capsys, "trivial", "--word", "a t a^-1 t^-1", fixture("torus.gog"))
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "trivial", "--word", "a t a^-1 t^-1", fixture("bs12.gog"))
        assert code == 0 and out == "false\n"

    def test_reduce_reports_bare_element(self, capsys):
        code, out, _ = run(capsys, "reduce", "--word", "a t a^-1 t^-1", fixture("klein.gog"))
        assert code == 0
        assert out.splitlines()[0] == "reduced: v:[2]"

    def test_abelianize(self, capsys):
        code, out, _ = run(capsys, "abelianize", fixture("torus.gog"))
        assert code == 0 and out == "free rank: 2\ntorsion: -\n"
        code, out, _ = run(capsys, "abelianize", fixture("finite-star.gog"))
        assert code == 0 and out == "free rank: 0\ntorsion: 6\n"

    def test_rank_bound(self, capsys):
        code, out, _ = run(capsys, "rank-bound", fixture("finite-star.gog"))
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "rank-bound", fixture("z3f2-diagram.gog"))
        assert code == 0 and out == "2\n"

    def test_contract_and_collapse(self, capsys):
        code, out, _ = run(capsys, "collapse", fixture("dyadic-5.gog"))
        assert code == 0
        assert "v5" in out and "edges: {}" in out
        code, out, _ = run(capsys, "contract", "--edge", "e1", fixture("dyadic-2.gog"))
        assert code == 0 and "v2" in out

    def test_convert_exit_codes(self, capsys):
        code, out, _ = run(capsys, "convert", "--oracle", "enum:5000", fixture("pushout46.gog"))
        assert code == 0 and "pi1 order 6 (exact)" in out
        code, _, err = run(capsys, "convert", "--oracle", "enum:2", fixture("pushout46.gog"))
        assert code == 3 and "inconclusive" in err

    def test_precondition_violations_exit_one(self, capsys):
        code, _, err = run(capsys, "contract", "--edge", "t", fixture("torus.gog"))
        assert code == 1 and "loop" in err
        code, _, err = run(capsys, "contract", "--edge", "e", fixture("amalgam-2-3.gog"))
        assert code == 1 and "isomorphism" in err
        code, _, err = run(capsys, "recognize-abelian", fixture("trefoil.gog"))
        assert code == 1

    def test_malformed_element_integers_exit_one(self, capsys):
        for word, path, message in (
            ("v:[a]", "torus.gog", "error: bad integer 'a' in element '[a]'\n"),
            ("m:#x", "finite-star.gog", "error: bad integer 'x' in element '#x'\n"),
            ("v:[1,2]", "torus.gog", "error: (1, 2) is not a Z^1 element\n"),
        ):
            code, out, err = run(capsys, "reduce", "--word", word, fixture(path))
            assert (code, out, err) == (1, "", message)

    def test_parse_errors_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "broken.gog"
        bad.write_text("vertices: [not, a, mapping]\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2 and "parse error" in err
        code, _, err = run(capsys, "validate", str(tmp_path / "missing.gog"))
        assert code == 2

    def test_duplicate_element_labels_exit_two(self, capsys, tmp_path):
        # maps are written by label, so a repeated label would make a
        # serialized graph of groups re-parse as a different diagram
        for i, (group, key) in enumerate((
            ("{cyclic: 2, letter: e}", ".vertices.v]"),
            ("{table: {elements: [e, e], mul: [[0, 1], [1, 0]]}}", ".vertices.v.elements]"),
        )):
            path = tmp_path / f"dup{i}.gog"
            path.write_text(f"vertices:\n  v: {group}\nedges: {{}}\n")
            code, out, err = run(capsys, "validate", str(path))
            assert (code, out) == (2, "")
            assert err == f"parse error: [{path}{key} duplicate element label 'e'\n"

    def test_malformed_files_exit_two(self, capsys, tmp_path):
        loop = (
            "vertices:\n  v: {free_abelian: [a]}\n"
            "edges:\n  t:\n    origin: v\n    terminus: v\n"
            "    group: {free_abelian: [c]}\n    fwd: %s\n    back: {matrix: [[1]]}\n"
        )
        cases = [
            # a 5000-element cyclic table is refused before its 25M products are built
            ("vertices: {v: {cyclic: 5000}}\n", ".vertices.v]", "exceeds cap 4096"),
            ("vertices: {v: {table: {elements: 5, mul: [[0]]}}}\n", ".vertices.v.elements]", "list"),
            ('vertices: {v: {table: {elements: "ab", mul: [[0]]}}}\n', ".vertices.v.elements]", "list"),
            (loop % "{matrix: [[1.5]]}", ".edges.t.fwd]", "integers"),
            (loop % "{matrix: [[true]]}", ".edges.t.fwd]", "integers"),
            (loop % "{images: [[2.7]]}", ".edges.t.fwd]", "integers"),
            (loop % "{images: [[true]]}", ".edges.t.fwd]", "integers"),
            # YAML booleans are not integers in a table's rows or identity
            ("vertices: {v: {table: {elements: [e, a], mul: [[0, true], [true, 0]], id: false}}}\n",
             ".vertices.v.mul]", "integers"),
            ("vertices: {v: {table: {elements: [e, a], mul: [[0, 1], [1, 0]], id: false}}}\n",
             ".vertices.v.id]", "integer"),
            # aliases: a few hundred bytes that expand to 2^30 leaves, so no
            # check may walk, print or quote the expanded value
            (f"vertices: {{v: {{free_abelian: 1}}}}\nprovenance: {nested_anchors(30)}\n",
             ".provenance]", "list of strings"),
            (f"vertices: {{v: {{table: {{elements: [e], mul: [{nested_anchors(30)}]}}}}}}\n",
             ".vertices.v.mul]", "integers"),
            (f"vertices: {{v: {{table: {{elements: [e], mul: [[0]], id: {nested_anchors(30)}}}}}}}\n",
             ".vertices.v.id]", "integer"),
            (loop % f"{{images: [{{k: {nested_anchors(30)}}}]}}", ".edges.t.fwd]", "invalid image entry"),
        ]
        for i, (text, key, reason) in enumerate(cases):
            path = tmp_path / f"bad{i}.gog"
            path.write_text(text)
            start = time.perf_counter()
            code, out, err = run(capsys, "pi1", str(path))
            assert time.perf_counter() - start < 1.0, text
            assert (code, out) == (2, ""), text
            assert err.startswith("parse error: ") and err.count("\n") == 1, err
            assert key in err and reason in err, err
            assert len(err) < len(str(path)) + 1000, err

    def test_deep_nesting_and_mixed_type_keys_exit_two(self, capsys, tmp_path):
        edge = ("vertices: {v: {cyclic: 2}}\nedges:\n  e: {origin: v, terminus: v, group: {cyclic: 1},"
                " fwd: identity, back: identity, %s}\n")
        cases = [
            # past libyaml's depth guard PyYAML's parser recurses once a level
            *((f"provenance: {'[' * k}{']' * k}\n", "]", "not valid YAML: nested too deeply")
              for k in (5001, 100000)),
            # unknown keys of mixed types are listed, not compared
            ("vertices: {v: {cyclic: 2, 1: x, b: y}}\n", ".vertices.v]", "unknown group keys [1, 'b']"),
            ("vertices: {v: {cyclic: 2}}\n1: a\nzz: b\n", "]", "unknown top-level keys [1, 'zz']"),
            (edge % "1: a, z: b", ".edges.e]", "unknown keys [1, 'z']"),
            # all-string keys keep their text
            ("vertices: {v: {cyclic: 2, c: x, b: y}}\n", ".vertices.v]", "unknown group keys ['b', 'c']"),
            (edge % "z: a, y: b", ".edges.e]", "unknown keys ['y', 'z']"),
        ]
        for i, (text, key, reason) in enumerate(cases):
            path = tmp_path / f"bad{i}.gog"
            path.write_text(text)
            code, out, err = run(capsys, "validate", str(path))
            assert (code, out) == (2, ""), text[:80]
            assert err == f"parse error: [{path}{key} {reason}\n", err[-300:]

    def test_reduce_conjugated_free_images_within_budget(self, capsys, tmp_path):
        # fwd images p m_i p^-1 with an 18-letter p: the pinch needs a free
        # preimage that replaying a fold history took about 51 s to find
        p = "b a b^-1 b^-1 a^-1 a^-1 a^-1 a^-1 a^-1 b a^-1 b a b a b^-1 b^-1 b^-1"
        p_inv = "b b b a^-1 b^-1 a^-1 b^-1 a b^-1 a a a a a b b a^-1 b^-1"
        middles = ["a^-1 a^-1", "a^-1 a^-1 b^-1 b^-1 a^-1 a^-1", "a b a^-1 a^-1"]
        images = ", ".join(f'"{p} {m} {p_inv}"' for m in middles)
        path = tmp_path / "conjugated.gog"
        path.write_text(
            "base: v\n"
            "vertices:\n"
            "  u: {free: [a, b]}\n"
            "  v: {free: [g1, g2, g3]}\n"
            "edges:\n"
            "  e:\n"
            "    origin: u\n"
            "    terminus: v\n"
            "    group: {free: [c1, c2, c3]}\n"
            f"    fwd: {{images: [{images}]}}\n"
            "    back: {images: [g1, g2, g3]}\n"
        )
        product = ".".join(f"{p} {middles[0]} {middles[1]} {p_inv}".split())
        start = time.perf_counter()
        code, out, _ = run(capsys, "reduce", "--word", f"e^-1 u:{product} e", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines()[0] == "reduced: v:g1.g2"
        assert elapsed < 2.0, f"reduce took {elapsed:.2f} s"

    def test_letter_words_on_a_large_table_build_no_presentation(self, capsys, tmp_path):
        # Z/512 has about 65,000 product relators; expanding letters reads
        # only the graph's naming, so no relator is spelled
        path = tmp_path / "z512.gog"
        path.write_text("vertices:\n  v: {cyclic: 512}\nedges: {}\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "trivial", "--word", "a a a", str(path))
        elapsed = time.perf_counter() - start
        assert (code, out) == (0, "false\n")
        assert elapsed < 2.0, f"trivial took {elapsed:.2f} s"

    def test_pi1_on_an_elementary_abelian_table_within_budget(self, capsys, tmp_path):
        # pi1 names the table's generators; the first 6-subset of the 63
        # non-identity elements of (Z/2)^6 was found by trying every smaller
        # subset first, which took well over 40 s
        _ft_generating_set.cache_clear()
        labels = ", ".join(f"x{i}" for i in range(64))
        rows = ", ".join("[" + ", ".join(str(i ^ j) for j in range(64)) + "]" for i in range(64))
        path = tmp_path / "z2-6.gog"
        path.write_text(f"vertices:\n  v: {{table: {{elements: [{labels}], mul: [{rows}]}}}}\nedges: {{}}\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "pi1", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.split("--")[0].split() == ["x1", "x2", "x4", "x8", "x16", "x32"]
        assert elapsed < 2.0, f"pi1 took {elapsed:.2f} s"

    def test_convert_abel_on_two_large_tables_within_budget(self, capsys, tmp_path):
        # each inclusion once solved a second lattice of the image basis
        # beside all 4,610 relator rows, and read a dense V of it: 36 s
        path = tmp_path / "z96-pair.gog"
        path.write_text(
            "vertices:\n  u: {cyclic: 96, letter: a}\n  v: {cyclic: 96, letter: b}\n"
            "edges:\n  e:\n    origin: u\n    terminus: v\n    group: {cyclic: 2, letter: c}\n"
            "    fwd: {map: [0, 48]}\n    back: {map: [0, 48]}\n"
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, "convert", "--oracle", "abel", str(path))
        elapsed = time.perf_counter() - start
        assert code == 0 and "converted: abelianization oracle" in out
        assert elapsed < 5.0, f"convert took {elapsed:.2f} s"

    def test_enumerate_cap_exit_three(self, capsys):
        code, _, err = run(capsys, "enumerate", "--cap", "50", fixture("torus.gog"))
        assert code == 3

    def test_non_positive_caps_are_usage_errors(self, capsys):
        for argv in (["enumerate", "--cap", "0"], ["enumerate", "--cap", "-5"],
                     ["convert", "--oracle", "enum:0"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv + [fixture("finite-star.gog")])
            out = capsys.readouterr()
            assert exit_info.value.code == 2 and out.out == ""
            lines = out.err.splitlines()
            assert [line.startswith("usage: ") for line in lines] == [True, False]
            assert "is not a positive integer" in lines[1]

    def test_byte_identical_reports(self, capsys):
        for argv in (
            ["pi1", fixture("z3f2-diagram.gog")],
            ["convert", "--oracle", "enum:5000", fixture("pushout46.gog")],
            ["recognize-abelian", fixture("bs12.gog")],
            ["decompose", "--edge", "s1", fixture("finite-star.gog")],
        ):
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second

    def test_cli_digests(self):
        assert_cli_digests()

    def test_golden_outputs(self, capsys):
        assert_golden_outputs(capsys)

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        first = ["reduce", "--word", "a t a^-1 t^-1", fixture("klein.gog")]
        second = ["decompose", "--edge", "e", fixture("trefoil.gog")]
        alone = [run(capsys, *argv) for argv in (first, second)]
        # a usage error between two calls leaves nothing behind in the parser
        got = [run(capsys, *first)]
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "--cap", "0", fixture("finite-star.gog")])
        assert exit_info.value.code == 2
        capsys.readouterr()
        got.append(run(capsys, *second))
        assert got == alone


    def test_every_parse_text_exits_two(self, capsys, tmp_path):
        # one file per parse-error text that no other test reaches
        loop = (
            "vertices:\n  v: {free_abelian: [a]}\n"
            "edges:\n  %s:\n    origin: v\n    terminus: v\n"
            "    group: {free_abelian: [c]}\n    fwd: %s\n    back: {matrix: [[1]]}%s\n"
        )
        finite = (
            "vertices: {v: {cyclic: 2}}\n"
            "edges: {t: {origin: v, terminus: v, group: {cyclic: 2}, fwd: %s, back: identity}}\n"
        )
        cases = [
            ("vertices: {v: {free_abelian: [true]}}\n", ".vertices.v]", "names must be strings"),
            ("vertices: {v: {free_abelian: [[a]]}}\n", ".vertices.v]", "names must be scalar"),
            ("vertices: {v: {cyclic: 2, free: 1}}\n", ".vertices.v]",
             "group descriptor needs exactly one of free_abelian/free/cyclic/table"),
            ("vertices: {v: {cyclic: 2, colour: red}}\n", ".vertices.v]", "unknown group keys ['colour']"),
            ("vertices: {v: {free_abelian: 2, letter: q}}\n", ".vertices.v]", "unknown group keys ['letter']"),
            ("vertices: {v: {table: {elements: [e, a], mul: [[0, 1], [1, 0]], idx: 1}}}\n", ".vertices.v]",
             "unknown table keys ['idx']"),
            ("vertices: {v: {free: abc}}\n", ".vertices.v]", "free takes a rank or a list of letter names"),
            ("vertices: {v: {free_abelian: -1}}\n", ".vertices.v]", "rank must be nonnegative"),
            ("vertices: {v: {cyclic: 0}}\n", ".vertices.v]", "cyclic takes a positive order"),
            ("vertices: {v: {table: {elements: [e]}}}\n", ".vertices.v]", "table needs keys ['mul']"),
            ("vertices: {v: {table: {elements: [e], mul: 0}}}\n", ".vertices.v.mul]",
             "mul must be a list of rows"),
            ("vertices: {v: {table: {elements: [e, a], mul: [[0, 1], [1, 1]]}}}\n", ".vertices.v]",
             "invalid multiplication table: "),
            ("vertices: {v: {table: {elements: [a, b, c, d, e], mul: [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],"
             " [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}}}\n", ".vertices.v]",
             "invalid multiplication table: associativity fails at (1,1,2)\n"),
            (loop % ("t", "{images: [x]}", ""), ".edges.t.fwd]",
             "bad image 'x': free abelian element must look like [k1,...]: 'x'"),
            (loop % ("t", "{matrix: [[1]], images: [[1]]}", ""), ".edges.t.fwd]",
             "hom descriptor needs exactly one of matrix/map/images (or the string identity)"),
            (loop % ("t", "{matrix: 1}", ""), ".edges.t.fwd]", "matrix must be a list of rows"),
            (loop % ("t", "{map: 1}", ""), ".edges.t.fwd]", "map must be a list"),
            (loop % ("t", "{map: [0]}", ""), ".edges.t.fwd]", "map homs target finite tables"),
            (loop % ("t", "{images: 1}", ""), ".edges.t.fwd]", "images must be a list"),
            (finite % "{map: [e, zz]}", ".edges.t.fwd]", "unknown target label 'zz'"),
            (loop % ('"t^-1"', "{matrix: [[1]]}", ""), ".edges.t^-1]", "edge names must not end with ^-1"),
            (loop % ("t", "{matrix: [[1]]}", "\n    colour: red"), ".edges.t]", "unknown keys ['colour']"),
            ("vertices: {v: {cyclic: 2}}\ncolour: red\n", "]", "unknown top-level keys ['colour']"),
            ("edges: {}\n", "]", "missing top-level key vertices"),
            # YAML keeps keys 1 and "1" apart; as names they are one
            ('vertices: {1: {cyclic: 2}, "1": {cyclic: 2}}\n', ".vertices.1]", "duplicate vertex"),
            ("vertices: {v: {cyclic: 2}}\nedges:\n"
             "  1: {origin: v, terminus: v, group: {cyclic: 2}, fwd: identity, back: identity}\n"
             '  "1": {}\n', ".edges.1]", "duplicate edge"),
            ("vertices: {v: {cyclic: 2}}\nbase: w\n", ".base]", "unknown vertex w"),
            ("vertices: {}\n", ".vertices]", "at least one vertex required"),
            # PyYAML's scalar constructors raise ValueError, KeyError,
            # IndexError or AttributeError on these
            ("vertices: {v: {cyclic: 0b_}}\n", "]",
             "not valid YAML: malformed scalar: invalid literal for int() with base 2: ''"),
            ("vertices: {v: {cyclic: 2}}\nprovenance: [2020-13-45]\n", "]",
             "not valid YAML: malformed scalar: month must be in 1..12"),
            ("{cyclic: !!bool x}\n", "]", "not valid YAML: malformed scalar: 'x'"),
            ("vertices: {v: {cyclic: !!int ''}}\n", "]",
             "not valid YAML: malformed scalar: string index out of range"),
            ("vertices: {v: {cyclic: 2}}\nprovenance: [!!float '']\n", "]",
             "not valid YAML: malformed scalar: string index out of range"),
            ("vertices: {v: {cyclic: 2}}\nprovenance: [!!timestamp x]\n", "]",
             "not valid YAML: malformed scalar: 'NoneType' object has no attribute 'groupdict'"),
        ]
        for i, (text, key, reason) in enumerate(cases):
            path = tmp_path / f"bad{i}.gog"
            path.write_text(text)
            code, out, err = run(capsys, "pi1", str(path))
            assert (code, out) == (2, ""), text
            assert err.startswith(f"parse error: [{path}") and err.count("\n") == 1, err
            assert key + " " + reason in err, err

    def test_validate_prints_each_violation(self, capsys, tmp_path):
        # a disconnected file parses, and validate exits 1 with its violations
        path = tmp_path / "apart.gog"
        path.write_text("vertices: {u: {cyclic: 2}, v: {cyclic: 3}}\n")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "disconnected: vertex v unreachable from u\n", "")

    @pytest.mark.parametrize("argv, text", [
        (["enumerate", "--cap", "x"], "argument --cap: enumeration cap 'x' is not a positive integer"),
        (["convert", "--oracle", "bogus"],
         "argument --oracle: unknown oracle 'bogus': expected abel, enum:CAP, or free"),
    ])
    def test_bad_option_values_exit_two(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main([*argv, fixture("torus.gog")])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.endswith(f"error: {text}\n"), err


def reference_load(text):
    """The one YAML document in ``text`` as ``gogfile._load_yaml`` read it
    before it built values from libyaml's nodes: ``yaml.load`` with
    ``CSafeLoader``, and PyYAML's own parser for what libyaml refuses or
    may nest too deeply for."""
    if gogfile._nesting_bound(text) <= gogfile._LIBYAML_MAX_DEPTH:
        try:
            return yaml.load(text, Loader=yaml.CSafeLoader)
        except (yaml.YAMLError, UnicodeEncodeError):
            pass
    return yaml.safe_load(text)


def value_tokens(value):
    """``value`` in repr's order, read without recursion, so that deep
    nesting compares too: one token per scalar (type and repr), one per
    container (type and length), and a back reference for a container met
    again (an alias, or a list holding itself)."""
    tokens, stack, met = [], [value], {}
    while stack:
        x = stack.pop()
        if type(x) not in (list, dict):
            tokens.append((type(x).__name__, repr(x)))
        elif id(x) in met:
            tokens.append(("again", met[id(x)]))
        else:
            met[id(x)] = len(tokens)
            tokens.append((type(x).__name__, len(x)))
            stack.extend(reversed(x) if type(x) is list
                         else (y for item in reversed(x.items()) for y in reversed(item)))
    return tokens


def load_outcome(load, text):
    try:
        return value_tokens(load(text))
    except RecursionError:
        # its text names the call the stack ran out in, which depends on the
        # caller's depth; parse_gog_text reports every one as nested too deeply
        return "RecursionError"
    except Exception as exc:
        return type(exc).__name__, str(exc)


def generated_yaml(rng):
    """A seeded YAML text: flow values under a block mapping or sequence,
    or alone.  Most scalars and keys are plain standard ones; about one in
    eight is exotic: malformed, tagged, a merge or value key, or not a
    scalar.  Anchors are common and aliases rarer, some undefined or
    recursive."""
    scalars = ["a", "x y", "'q'", '"d\\u00e9"', "''", "1", "-0", "+7", "0x1F", "0o17", "017",
               "1_000", "0b101", "190:20:30", "1.5", "-.Inf", ".NaN", "6.85e+5", "yes", "Off",
               "true", "~", "null", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "!!binary aGVsbG8="]
    odd_scalars = ["0b_", "._", "2020-13-45", "!!binary '!!'", "!!str 12", '!!int "3"', "!!float 1",
                   "!!bool x", "!foo x", "!!python/tuple [1]", "!!null ''"]
    keys = ["a", "b", "a", "1", "true", "1.0", "~", "'x'", "2001-12-14", "0x10", "16"]
    odd_keys = ["<<", "=", "? [a, b]", "[1]", "{k: v}", "!!str 3", "!!set {a}"]
    tags = ["!!set ", "!!omap ", "!!pairs ", "!!seq ", "!!map ", "!!str ", "!x "]
    anchors = []

    def pick(common, odd):
        return rng.choice(odd if rng.random() < 0.04 else common)

    def value(depth):
        r = rng.random()
        if anchors and r < 0.01:
            return "*" + rng.choice(anchors) if rng.random() < 0.9 else "*nowhere"
        prefix = ""
        if r < 0.1:
            anchors.append(f"n{len(anchors)}")
            prefix = f"&{anchors[-1]} "
        if depth > 3 or r < 0.45:
            return prefix + pick(scalars, odd_scalars)
        prefix += pick([""], tags)
        if r < 0.72:
            return prefix + "[" + ", ".join(value(depth + 1) for _ in range(rng.randint(0, 4))) + "]"
        return prefix + "{" + ", ".join(
            f"{pick(keys, odd_keys)}: {value(depth + 1)}" for _ in range(rng.randint(0, 4))) + "}"

    shape = rng.random()
    if shape < 0.5:
        return "".join(f"{pick(keys, odd_keys)}: {value(1)}\n" for _ in range(rng.randint(1, 4)))
    if shape < 0.7:
        return "".join(f"- {value(1)}\n" for _ in range(rng.randint(1, 4)))
    return value(0)


class TestYamlBackend:
    """libyaml reads and writes .gog YAML; PyYAML's pure-Python classes
    must give the same documents and the same bytes."""

    @staticmethod
    def corpus():
        """Every fixture, every golden output that is a YAML mapping, and
        the serialization of every zoo graph."""
        texts = [p.read_text() for p in sorted(FIXTURES.glob("*.gog"))]
        for path in sorted(GOLDEN.glob("*.txt")):
            try:
                if isinstance(yaml.safe_load(path.read_text()), dict):
                    texts.append(path.read_text())
            except yaml.YAMLError:
                pass
        return texts + [serialize_gog(g) for g in zoo.graphs()]

    @needs_libyaml
    def test_both_backends_agree_on_the_corpus(self):
        for text in self.corpus():
            doc = yaml.load(text, Loader=yaml.CSafeLoader)
            assert doc == yaml.load(text, Loader=yaml.SafeLoader), text
            for style in (BLOCK_STYLE, FLOW_STYLE):
                c_text = yaml.dump(doc, Dumper=yaml.CSafeDumper, **style)
                assert c_text == yaml.dump(doc, Dumper=yaml.SafeDumper, **style), text

    def test_reading_from_nodes_matches_the_loader(self, monkeypatch):
        # the corpus, 2,000 seeded texts, and nesting within libyaml's bound,
        # read by each backend against the loader as it was called before
        # values were built from nodes
        rng = random.Random(2026)
        texts = self.corpus() + [generated_yaml(rng) for _ in range(2000)]
        texts += ["a: &x [1]\nb: *x\n", "a: &r [*r]\n", "<<: {a: 1}\nb: 2\n", "{1: a, true: b, 1.0: c}",
                  "", "---\n...\n", "a: 1\n---\nb: 2\n", "x: [\n", "'\ud800'"]
        texts += ["[" * 1500 + "x" + "]" * 1500, "- " * 1500 + "x", "{a: " * 1500 + "1" + "}" * 1500]
        # PyYAML's parser runs out of stack below 900 levels, so only libyaml reads the deepest
        deepest = ["[" * 4900 + "x" + "]" * 4900, "- " * 4900 + "x"]
        backends = [(yaml.SafeLoader, yaml.safe_load, texts)]
        if yaml.__with_libyaml__:
            backends.insert(0, (yaml.CSafeLoader, reference_load, texts + deepest))
        for loader, reference, texts in backends:
            monkeypatch.setattr(gogfile, "YAML_LOADER", loader)
            outcomes = collections.Counter()
            for text in texts:
                got = load_outcome(gogfile._load_yaml, text)
                assert got == load_outcome(reference, text), (loader.__name__, text[:200])
                outcomes[type(got) is list] += 1
            assert outcomes[True] > 1000 and outcomes[False] > 300, loader.__name__

    @pytest.mark.parametrize("backend", ["bound", "pure"])
    def test_a_text_with_an_alias_is_composed_once(self, backend, monkeypatch):
        # the loader's constructor builds it from the nodes already composed
        loader = gogfile.YAML_LOADER if backend == "bound" else yaml.SafeLoader
        monkeypatch.setattr(gogfile, "YAML_LOADER", loader)
        composed = []
        compose = loader.get_single_node
        monkeypatch.setattr(loader, "get_single_node", lambda self: composed.append(self) or compose(self))
        doc = gogfile._load_yaml("a: &x [1]\nb: *x\n")
        assert doc == {"a": [1], "b": [1]} and doc["a"] is doc["b"]
        assert len(composed) == 1 and type(composed[0]) is loader

    @needs_libyaml
    def test_no_fixture_reaches_the_generic_constructor(self, monkeypatch):
        def refuse(self, node):
            raise AssertionError("built by the loader's constructor")

        monkeypatch.setattr(yaml.constructor.BaseConstructor, "construct_document", refuse)
        for path in sorted(FIXTURES.glob("*.gog")):
            parse_gog(path)
        with pytest.raises(AssertionError, match="^built by the loader's constructor$"):
            gogfile._load_yaml("a: &x [1]\nb: *x\n")

    @pytest.mark.parametrize("backend", ["bound", "pure"])
    def test_seeded_texts_parse_or_raise_a_gog_error(self, backend, monkeypatch):
        # the differential test's generator, alone and in the slots of a
        # .gog document: whatever the loader makes of a text, malformed
        # scalars included, parsing ends in a graph or a GogError
        if backend == "pure":
            monkeypatch.setattr(gogfile, "YAML_LOADER", yaml.SafeLoader)
        rng = random.Random(2026)
        slots = ["{}", "vertices:\n  v:\n{}", "vertices: {{v: {{cyclic: 2}}}}\nprovenance:\n{}",
                 "vertices: {{v: {{free_abelian: 1}}}}\nedges:\n  t:\n    origin: v\n"
                 "    terminus: v\n    group: {{free_abelian: 1}}\n    back: identity\n    fwd:\n{}"]
        outcomes = collections.Counter()
        for i in range(1200):
            text = generated_yaml(rng)
            slot = slots[i % len(slots)]
            if i % len(slots):
                text = "".join("      " + line + "\n" for line in text.splitlines())
            try:
                parse_gog_text(slot.format(text))
                outcomes["parsed"] += 1
            except GogError as exc:
                outcomes[type(exc).__name__] += 1
        assert outcomes["GogParseError"] > 500 and outcomes["parsed"] > 0, outcomes

    def test_pure_python_backend_keeps_goldens_and_digests(self, capsys, monkeypatch):
        monkeypatch.setattr(gogfile, "YAML_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(gogfile, "YAML_DUMPER", yaml.SafeDumper)
        assert_golden_outputs(capsys)
        assert_cli_digests()

    @needs_libyaml
    def test_large_tables_and_inverse_words_stay_with_libyaml(self, monkeypatch):
        # an order-k table costs the nesting bound about k + 115, not one
        # per "-" and "[": tables up to order _LIBYAML_MAX_DEPTH - 150
        # (4,850) are read by libyaml
        for k in (150, 400):
            table = serialize_gog(GraphOfGroups.make(zoo._graph(["v"], []), {"v": cyclic_table(k)}, {}, {}))
            assert gogfile._nesting_bound(table) < k + 150
        # 6,000 "^-1" on wrapped lines cost only the longest line's length
        text = serialize_gog(parse_gog_text(
            "vertices:\n  v: {free: [x]}\nedges:\n  t:\n    origin: v\n    terminus: v\n"
            "    group: {free: [c]}\n    fwd: {images: [%s]}\n    back: {images: [x]}\n"
            % " ".join(["x^-1"] * 6000)
        ))
        assert gogfile._nesting_bound(text) < 150

        def refuse(_):
            raise AssertionError("read by PyYAML's parser")

        monkeypatch.setattr(yaml.SafeLoader, "get_single_node", refuse)
        assert serialize_gog(parse_gog_text(text)) == text

    def test_deep_nesting_does_not_crash_the_interpreter(self):
        # libyaml composes by C recursion and overflows the stack near
        # 22,000 levels; such text must reach PyYAML's parser instead,
        # nested by flow brackets, compact block sequences or keys
        script = (
            "from gogroups.gogfile import parse_gog_text\n"
            "for text in ('provenance: ' + '[' * 100000 + ']' * 100000, '- ' * 30000 + 'x', '? ' * 30000):\n"
            "    try:\n"
            "        parse_gog_text(text)\n"
            "    except Exception:\n"
            "        pass\n"
        )
        src = str(pathlib.Path(gogfile.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()[-500:]


class TestConvertedRoundtrip:
    def test_converted_output_reparses(self):
        from gogroups.moves import QuotientOracle, convert_diagram
        from gogroups.quotients import coset_enumeration

        converted = convert_diagram(
            parse_gog(fixture("pushout46.gog")), QuotientOracle.finite_enumeration(5000)
        )
        text = serialize_gog(converted)
        again = parse_gog_text(text)
        assert serialize_gog(again) == text
        assert classify(again).value == "graph-of-groups"
        p = pi1_presentation(again)
        assert coset_enumeration(p, 5000).order == 6
