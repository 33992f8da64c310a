"""The derive and check tables: every functor's input contract, the
provenance rule, the README table, I/O and malformed-document exits, and a
mutation fuzz of ``check`` over the exit-code contract."""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from homcert import docs
from homcert.cli import CHECKS, DERIVE_FLAGS, FUNCTORS, _input_digest, main
from homcert.exactlin import Matrix, Tensor3, rat, rat_str
from homcert.functors import adjoint_bimodule
from homcert.hommod import adjoint_postlie_module
from homcert.search import brute_force_oop_search

from conftest import catalog_algebra

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

# one valid run per functor: input documents, then flags
VALID = {
    "commutator-lie": ["a.json"],
    "prelie-to-lie": ["p.json"],
    "novikov-to-postlie": ["n.json"],
    "scale": ["l.json", "--k", "1/2"],
    "yau-twist": ["a.json", "id2.json"],
    "rb-dendriform": ["a.json", "minus-id2.json", "--weight", "1"],
    "adjoint-bimodule": ["a.json"],
    "adjoint-postlie-module": ["l.json"],
    "bimodule-to-lie-module": ["bim.json"],
    "direct-sum-modules": ["self.json", "self.json"],
    "tensor-modules": ["self.json", "self.json", "--k", "1"],
    "twist-n0": ["self.json", "--n", "2"],
    "twist-0k": ["self.json"],
    "twist-beta": ["self.json", "id3.json", "id3.json"],
    "oop-lie-to-prelie": ["rep.json", "t-rep.json"],
    "oop-assoc-to-dendriform": ["bim.json", "t-bim.json"],
    "oop-assoc-to-prelie": ["bim.json", "t-bim.json"],
    "oop-assoc-to-ldendriform": ["bim.json", "t-bim.json"],
    "oop-prelie-to-dendriform": ["pbim.json", "t-pbim.json"],
    "ldend-to-prelie": ["ld.json", "--mode", "vertical"],
    "ldend-brackets": ["ld.json"],
    "ldend-transpose": ["ld.json"],
    "ldend-semidirect": ["ldbim.json"],
    "prelie-module-split": ["ld.json"],
}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    """Catalog documents for every functor, written once."""
    root = tmp_path_factory.mktemp("inputs")
    a = catalog_algebra("hom-associative", "truncated-poly-2")
    p = catalog_algebra("hom-prelie", "truncated-poly-2")
    lie = catalog_algebra("hom-lie", "affine-line")
    ld = catalog_algebra("hom-l-dendriform", "split-dual-ld")
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    algebras = {"a": a, "p": p, "ld": ld, "l": l,
                "n": catalog_algebra("hom-novikov", "truncated-poly-2")}
    modules = {"bim": adjoint_bimodule(a), "pbim": adjoint_bimodule(p),
               "rep": adjoint_bimodule(lie), "ldbim": adjoint_bimodule(ld),
               "self": adjoint_postlie_module(l, 1)}
    operators = {"id2": Matrix.identity(2), "id3": Matrix.identity(3),
                 "minus-id2": Matrix([[-1, 0], [0, -1]]), "zero2": Matrix.zeros(2, 2)}
    for stem, alg in (("bim", a), ("pbim", p), ("rep", lie)):
        nonzero = [t for t in brute_force_oop_search(alg, modules[stem], 1)
                   if any(any(row) for row in t.data)]
        operators["t-" + stem] = nonzero[0]
    for stem, x in algebras.items():
        docs.save_json(str(root / f"{stem}.json"), docs.algebra_to_doc(x))
    for stem, m in modules.items():
        docs.save_json(str(root / f"{stem}.json"), docs.module_to_doc(m))
    for stem, t in operators.items():
        docs.save_json(str(root / f"{stem}.json"), docs.operator_to_doc(t))
    return root


@pytest.fixture()
def indir(inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    return inputs_dir


def test_every_functor_has_a_valid_run():
    assert set(VALID) == set(FUNCTORS)


@pytest.mark.parametrize("name", list(FUNCTORS))
def test_functor_input_contract(name, indir, tmp_path, capsys):
    """One valid run, then one input too few, one too many and one flag the
    functor does not take: each an input error, without a traceback."""
    entry = FUNCTORS[name]
    argv = VALID[name]
    paths, flags = argv[:len(entry.inputs)], argv[len(entry.inputs):]
    out = str(tmp_path / "out.json")
    assert main(["derive", name, *argv, "--out", out]) == 0
    provenance = docs.load_json(out)["provenance"]
    assert provenance["functor"] == name
    assert len(provenance["inputs"]) == len(entry.inputs)
    assert sorted(provenance["params"]) == sorted(entry.flags)
    unused = next(flag for flag in DERIVE_FLAGS if flag not in entry.flags)
    capsys.readouterr()
    assert main(["derive", name, *paths[:-1], *flags]) == 2
    assert main(["derive", name, *paths, paths[-1], *flags]) == 2
    assert main(["derive", name, *argv, f"--{unused}",
                 "horizontal" if unused == "mode" else "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("input error: ") == 3 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["derive", "commutator-lie", "a.json", "a.json"],
    ["derive", "commutator-lie", "a.json", "--k", "5"],
    ["derive", "commutator-lie", "a.json", "--mode", "vertical"],
    ["derive", "commutator-lie", "a.json", "--weight", "x"],
    ["derive", "yau-twist", "a.json", "id2.json", "id2.json"],
    ["derive", "scale", "l.json"],
    ["derive", "scale", "l.json", "--k", "x"],
    ["derive", "twist-n0", "self.json", "--n", "1/2"],
    ["derive", "ldend-to-prelie", "ld.json", "--mode", "diagonal"],
    ["derive", "no-such-functor", "a.json"],
    ["derive", "commutator-lie"],
    ["check"],
    ["check", "a.json", "--predicate", "rota-baxter"],
    ["check", "a.json", "id2.json", "--predicate", "rota-baxter", "--weight", "1/0"],
    ["check", "a.json", "--predicate", "convolution-rb"],
])
def test_inputs_an_entry_would_ignore_are_input_errors(indir, capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error: " in captured.err


def test_provenance_names_every_input(indir, tmp_path):
    a = docs.algebra_from_doc(docs.load_json("a.json"))
    digests = []
    for op in ("id2", "zero2"):
        out = str(tmp_path / f"{op}.json")
        assert main(["derive", "yau-twist", "a.json", f"{op}.json", "--out", out]) == 0
        t = docs.operator_from_doc(docs.load_json(f"{op}.json"))
        inputs = docs.load_json(out)["provenance"]["inputs"]
        assert inputs == [a.digest(), _input_digest(t)]
        digests.append(inputs)
    assert digests[0] != digests[1]  # two twists of one algebra
    # prelie-module-split records its input, not the preLie algebra it builds
    out = str(tmp_path / "split.json")
    assert main(["derive", "prelie-module-split", "ld.json", "--out", out]) == 0
    ld = docs.algebra_from_doc(docs.load_json("ld.json"))
    assert docs.load_json(out)["provenance"]["inputs"] == [ld.digest()]


def test_params_are_canonical_and_defaults_recorded(indir, tmp_path):
    def derive(*argv):
        out = str(tmp_path / "out.json")
        assert main(["derive", *argv, "--out", out]) == 0
        with open(out, "rb") as fh:
            return fh.read()

    assert derive("scale", "l.json", "--k", "2/4") == derive("scale", "l.json", "--k", "1/2")
    horizontal = derive("ldend-to-prelie", "ld.json")
    assert horizontal == derive("ldend-to-prelie", "ld.json", "--mode", "horizontal")
    assert json.loads(horizontal)["provenance"]["params"] == {"mode": "horizontal"}
    assert (json.loads(derive("rb-dendriform", "a.json", "minus-id2.json", "--weight", "2/2"))
            ["provenance"]["params"] == {"weight": "1"})


def _flag_cell(flags: dict) -> str:
    return ", ".join(f"`--{flag}` ({'required' if default is None else f'default {default}'})"
                     for flag, (_, default) in flags.items())


def test_readme_table_matches_the_cli_table():
    with open(README, encoding="utf-8") as fh:
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in fh if line.startswith("| `")]
    assert rows == [[f"`{name}`", ", ".join(entry.inputs), _flag_cell(entry.flags)]
                    for name, entry in FUNCTORS.items()]


@pytest.mark.parametrize("command, names", [("derive", FUNCTORS), ("check", CHECKS)])
def test_help_names_every_entry(command, names, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")  # a narrow terminal wraps no name at a hyphen
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in names:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), name


# ---------------------------------------------------------------------------
# I/O and malformed documents keep the exit contract

def test_check_directory_is_input_error(indir, capsys):
    assert main(["check", str(indir)]) == 2
    assert "input error: " in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'{"kind": "\xe9"}', b"[" * 200000 + b"]" * 200000],
                         ids=["non-utf8", "nested-past-the-recursion-limit"])
def test_check_unreadable_file_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["check", str(path)]) == 2
    assert "input error: " in capsys.readouterr().err


def test_rationals_past_the_str_digit_limit_are_written_exactly(tmp_path, capsys):
    """Witnesses, reports and documents hold rationals with more digits than
    str(int) converts: a 3000-digit twist squared, a 3000-digit product scaled."""
    big = "9" * 3000
    squared = str(Decimal(int(big) ** 2))
    algebra = {"schema_version": "1", "kind": "hom-associative", "dim": 1,
               "alpha": [[big]], "ops": {"mul": [[["1"]]]}}
    docs.save_json(str(tmp_path / "a.json"), algebra)
    assert main(["check", str(tmp_path / "a.json"), "--predicate", "multiplicative"]) == 1
    assert f"lhs=({big}) rhs=({squared})" in capsys.readouterr().out
    postlie = {"schema_version": "1", "kind": "hom-postlie", "dim": 1, "alpha": [["1"]],
               "ops": {"bracket": [[["0"]]], "mul": [[[big]]]}}
    docs.save_json(str(tmp_path / "l.json"), postlie)
    out = str(tmp_path / "scaled.json")
    assert main(["derive", "scale", str(tmp_path / "l.json"), "--k", big, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["ops"]["mul"] == [[[squared]]]
    assert main(["check", out]) == 0


def test_derive_out_in_missing_directory_is_input_error(indir, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.json")
    assert main(["derive", "commutator-lie", "a.json", "--out", out]) == 2
    assert "input error: " in capsys.readouterr().err


def test_derive_out_naming_a_directory_leaves_no_temporary(indir, tmp_path, capsys):
    assert main(["derive", "commutator-lie", "a.json", "--out", str(tmp_path)]) == 2
    assert "input error: " in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path) + ".tmp")


def test_certify_corpus_out_existing_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    assert main(["certify-corpus", "--trials", "0", "--max-dim", "1",
                 "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert "input error: " in captured.err and "RESULT" not in captured.out


@pytest.mark.parametrize("kind", [[], {}])
@pytest.mark.parametrize("module", [False, True])
def test_unhashable_kind_is_input_error(tmp_path, capsys, kind, module):
    a = catalog_algebra("hom-associative", "truncated-poly-2")
    doc = docs.module_to_doc(adjoint_bimodule(a)) if module else docs.algebra_to_doc(a)
    doc["kind"] = kind
    docs.save_json(str(tmp_path / "doc.json"), doc)
    assert main(["check", str(tmp_path / "doc.json")]) == 2
    assert "input error: " in capsys.readouterr().err


def test_object_in_ops_tensor_is_input_error(tmp_path, capsys):
    doc = docs.algebra_to_doc(catalog_algebra("hom-associative", "truncated-poly-2"))
    doc["ops"]["mul"] = [{"a": 1}]
    docs.save_json(str(tmp_path / "doc.json"), doc)
    assert main(["check", str(tmp_path / "doc.json")]) == 2
    assert "input error: " in capsys.readouterr().err


def test_boolean_entry_is_input_error(tmp_path, capsys):
    doc = docs.algebra_to_doc(catalog_algebra("hom-associative", "truncated-poly-2"))
    doc["alpha"][0][0] = True  # would read as the 1 it replaces
    with open(tmp_path / "doc.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["check", str(tmp_path / "doc.json")]) == 2
    assert "input error: " in capsys.readouterr().err


def _bases():
    dual = catalog_algebra("hom-associative", "truncated-poly-2")
    ld = catalog_algebra("hom-l-dendriform", "split-dual-ld")
    lie3 = catalog_algebra("hom-lie", "heisenberg")
    return [docs.algebra_to_doc(dual), docs.algebra_to_doc(ld), docs.algebra_to_doc(lie3),
            docs.algebra_to_doc(dual, delta=Tensor3.zeros(2)),
            docs.module_to_doc(adjoint_bimodule(dual)),
            docs.operator_to_doc(Matrix([[0, 0], [1, 0]]))]


BASES = _bases()
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(["1/0", "x", "", "1/2", "0", "-1", " 3 ", "2/4", "1e3",
                                    "hom-lie", "assoc-bimodule", "operator", "mul"]))
JUNK = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.sampled_from(["a", "0", "mul", "bracket", "l"]), inner, max_size=2), max_leaves=8)


def _mutate(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = None, None, doc  # descend at least once, then at random
        while (isinstance(node, (dict, list)) and node
               and (parent is None or data.draw(st.booleans()))):
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "append", "dim"]))
        if action == "replace":
            parent[key] = data.draw(JUNK)
        elif action == "delete":
            del parent[key]
        elif action == "append" and isinstance(node, list):
            node.append(data.draw(JUNK))
        elif action == "dim":
            parent[key] = data.draw(st.integers(0, 3))
    return doc


def _normal(value):
    """Rational leaves (strings and non-bool ints rat accepts) in canonical form."""
    if isinstance(value, dict):
        return {k: _normal(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normal(v) for v in value]
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return rat_str(rat(value))
        except ValueError:
            return value
    return value


def _reserialized(doc):
    dtype = docs.document_type(doc)
    if dtype == "module":
        return docs.module_to_doc(docs.module_from_doc(doc))
    if dtype == "operator":
        return docs.operator_to_doc(docs.operator_from_doc(doc))
    delta = docs.bialgebra_from_doc(doc).delta if dtype == "bialgebra" else None
    return docs.algebra_to_doc(docs.algebra_from_doc(doc), delta=delta)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_exit_contract(data):
    """A mutated document exits 0-3 without an exception, and exits 0 only
    when docs reads it and writes it back to the same document."""
    base = data.draw(st.sampled_from(BASES))
    doc = _mutate(data, base)
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if base["kind"] == "operator":
            algebra = os.path.join(tmp, "alg.json")
            docs.save_json(algebra, BASES[0])
            argv = ["check", algebra, path, "--predicate", "rota-baxter"]
        else:
            argv = ["check", path]
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert _normal(doc) == _normal(_reserialized(doc))


LIE_BASES = [docs.algebra_to_doc(catalog_algebra("hom-lie", name))
             for name in ("affine-line", "heisenberg")]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_search_postlie_exit_contract(data):
    """search-postlie on a mutated Hom-Lie document exits 0-3 without an
    exception, at bound 0 and 1."""
    doc = _mutate(data, data.draw(st.sampled_from(LIE_BASES)))
    bound = data.draw(st.sampled_from(["0", "1"]))
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "lie.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["search-postlie", path, "--bound", bound])
    assert code in (0, 1, 2, 3)


# small flag values only: a mutated twist with entries of 2 makes a large k intractable
FLAG_VALUES = {"k": st.sampled_from(["0", "1", "2", "3"]),
               "n": st.sampled_from(["0", "1", "2", "3"]),
               "weight": st.sampled_from(["0", "1", "-1", "1/2", "x"]),
               "mode": st.sampled_from(["horizontal", "vertical", "diagonal"])}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_derive_exit_contract(inputs_dir, data):
    """derive with every functor, on its catalog documents, each possibly
    mutated, with small values of its flags and at times one flag it does not
    take, exits 0-3 without an exception."""
    name = data.draw(st.sampled_from(sorted(FUNCTORS)))
    entry = FUNCTORS[name]
    stems = VALID[name][:len(entry.inputs)]
    taken = [flag for flag in sorted(entry.flags) if data.draw(st.booleans())]
    if data.draw(st.integers(0, 4)) == 0:  # at times a flag the functor does not take
        taken.append(data.draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(entry.flags)))))
    flags = [part for flag in taken for part in (f"--{flag}", data.draw(FLAG_VALUES[flag]))]
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        paths = []
        for i, stem in enumerate(stems):
            doc = docs.load_json(str(inputs_dir / stem))
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(_mutate(data, doc) if data.draw(st.booleans()) else doc, fh)
        if data.draw(st.booleans()):
            flags += ["--out", os.path.join(tmp, "out.json")]
        code = main(["derive", name, *paths, *flags])
    assert code in (0, 1, 2, 3)
