"""Document round-trips, the command surface, and its exit-code contract."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcert import cli, docs, harness, search
from homcert.cli import main
from homcert.exactlin import Matrix, Tensor3
from homcert.homcore import KIND_OPS, HomAlgebra, check_axioms, yau_twist
from homcert.hommod import MODULE_KINDS, HomModule, adjoint_postlie_module
from homcert.functors import adjoint_bimodule
from homcert.search import sc_tensor

from conftest import catalog_algebra


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_algebra(path, a, **kw):
    docs.save_json(str(path), docs.algebra_to_doc(a, **kw))
    return str(path)


def test_algebra_doc_round_trip(dual_numbers, tmp_path):
    doc = docs.algebra_to_doc(dual_numbers)
    assert docs.algebra_from_doc(doc) == dual_numbers
    # parse -> serialize -> parse is the identity, and bytes are stable
    text = docs.dumps(doc)
    again = docs.dumps(docs.algebra_to_doc(docs.algebra_from_doc(json.loads(text))))
    assert text == again


def test_module_doc_round_trip_inline_and_reference(dual_numbers, tmp_path):
    m = adjoint_bimodule(dual_numbers)
    doc = docs.module_to_doc(m)
    assert docs.module_from_doc(doc) == m
    alg_path = tmp_path / "alg.json"
    write_algebra(alg_path, dual_numbers)
    ref_doc = docs.module_to_doc(m, algebra_ref="alg.json")
    assert docs.module_from_doc(ref_doc, str(tmp_path)) == m


# mostly proper fractions, some ints, and entries of 600 to 700 digits
_entries = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-9, 9),
    st.builds(lambda k, sign, den: Fraction(sign * (10 ** k + 7), den),
              st.integers(600, 700), st.sampled_from([1, -1]), st.sampled_from([1, 3, 10 ** 640 + 1])))


def _matrices(rows, cols):
    return st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _algebras(draw, kind=None, dim=None):
    kind = kind or draw(st.sampled_from(sorted(KIND_OPS)))
    n = dim or draw(st.integers(1, 3))
    ops = {name: Tensor3(n, n, n, draw(st.lists(_entries, min_size=n ** 3, max_size=n ** 3)))
           for name in KIND_OPS[kind] or draw(st.sampled_from([("mul",), ("p", "q")]))}
    return HomAlgebra(n, kind, ops, Matrix(draw(_matrices(n, n))))


@st.composite
def _modules(draw):
    kind = draw(st.sampled_from(sorted(MODULE_KINDS)))
    alg_kind, names = MODULE_KINDS[kind]
    algebra = draw(_algebras(alg_kind, draw(st.integers(1, 3))))
    m = draw(st.integers(1, 3))
    actions = {name: tuple(Matrix(draw(_matrices(m, m))) for _ in range(algebra.dim))
               for name in names}
    return HomModule(algebra, m, Matrix(draw(_matrices(m, m))), actions, kind)


def _typed(values):
    return [(type(v), v) for v in values]


def _algebra_entries(a):
    return _typed([v for row in a.alpha.data for v in row]
                  + [v for name in sorted(a.ops) for v in a.ops[name].data])


def _module_entries(m):
    return _algebra_entries(m.algebra) + _typed(
        [v for row in m.beta.data for v in row]
        + [v for name in sorted(m.actions) for mat in m.actions[name]
           for row in mat.data for v in row])


@settings(max_examples=60, deadline=None)
@given(_algebras())
def test_algebra_doc_round_trip_keeps_entries_and_types(tmp_path_factory, a):
    path = tmp_path_factory.getbasetemp() / "algebra.json"
    path.write_text(docs.dumps(docs.algebra_to_doc(a)), encoding="utf-8")
    again = docs.algebra_from_doc(docs.load_json(str(path)))
    assert again == a and _algebra_entries(again) == _algebra_entries(a)


@settings(max_examples=40, deadline=None)
@given(_modules())
def test_module_doc_round_trip_keeps_entries_and_types(tmp_path_factory, m):
    path = tmp_path_factory.getbasetemp() / "module.json"
    path.write_text(docs.dumps(docs.module_to_doc(m)), encoding="utf-8")
    again = docs.module_from_doc(docs.load_json(str(path)))
    assert again == m and _module_entries(again) == _module_entries(m)


def test_operator_doc_round_trip():
    for m in (Matrix([[0, "1/2"], [1, 0]]), Matrix.zeros(0, 3), Matrix.zeros(3, 0)):
        again = docs.operator_from_doc(docs.operator_to_doc(m))
        assert again == m and again.dims == m.dims


def test_document_type_sniffing(dual_numbers):
    assert docs.document_type(docs.algebra_to_doc(dual_numbers)) == "algebra"
    assert docs.document_type(docs.operator_to_doc(Matrix.zeros(1, 1))) == "operator"
    m = adjoint_bimodule(dual_numbers)
    assert docs.document_type(docs.module_to_doc(m)) == "module"
    with_delta = docs.algebra_to_doc(dual_numbers, delta=Tensor3.zeros(2))
    assert docs.document_type(with_delta) == "bialgebra"


def test_check_passing_document(workdir, affine_lie, capsys):
    path = write_algebra("lie.json", affine_lie)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "hom-jacobi" in out


def test_check_failing_document_witness(workdir, capsys):
    t = sc_tensor(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    bad = HomAlgebra(2, "hom-associative", {"mul": t}, Matrix.identity(2))
    path = write_algebra("bad.json", bad)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "(1, 1, 1)" in out


def test_check_truncated_file(workdir):
    with open("broken.json", "w") as fh:
        fh.write('{"schema_version": "1", "kind": ')
    assert main(["check", "broken.json"]) == 2


def test_check_predicates(workdir, dual_numbers):
    path = write_algebra("dual.json", dual_numbers)
    assert main(["check", path, "--predicate", "multiplicative"]) == 0
    assert main(["check", path, "--predicate", "lie-admissible"]) == 0
    assert main(["check", path, "--predicate", "left-commutative"]) == 0
    assert main(["check", path, "--predicate", "no-such-predicate"]) == 2
    docs.save_json("r.json", docs.operator_to_doc(Matrix([[0, 0], [1, 0]])))
    assert main(["check", path, "r.json", "--predicate", "rota-baxter",
                 "--weight", "0"]) == 0
    assert main(["check", path, "r.json", "--predicate", "rota-baxter",
                 "--weight", "1"]) == 1


def test_check_rejects_inputs_it_would_ignore(workdir, dual_numbers, capsys):
    """An operator document or a weight is only read by --predicate
    rota-baxter; anywhere else it exits 2 instead of a PASS that ignored it."""
    path = write_algebra("dual.json", dual_numbers)
    docs.save_json("r.json", docs.operator_to_doc(Matrix([[0, 0], [1, 0]])))
    capsys.readouterr()
    assert main(["check", path, "r.json"]) == 2
    assert main(["check", path, "r.json", "--predicate", "multiplicative"]) == 2
    assert main(["check", path, "--weight", "x"]) == 2
    assert main(["check", path, "--weight", "1", "--predicate", "multiplicative"]) == 2
    assert main(["check", path, "r.json", "r.json", "--predicate", "rota-baxter"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("input error: ") == 5 and "Traceback" not in captured.err
    assert main(["check", path, "r.json", "--predicate", "rota-baxter"]) == 0


def test_check_module_document(workdir, dual_numbers):
    m = adjoint_bimodule(dual_numbers)
    docs.save_json("mod.json", docs.module_to_doc(m))
    assert main(["check", "mod.json"]) == 0


def test_check_bialgebra_convolution(workdir, dual_numbers):
    doc = docs.algebra_to_doc(dual_numbers, delta=Tensor3.zeros(2))
    docs.save_json("bialg.json", doc)
    assert main(["check", "bialg.json", "--predicate", "convolution-rb"]) == 0


def test_check_bialgebra_certifies_the_coproduct(workdir, capsys):
    """Without --predicate a bialgebra document is certified against its
    kind's axioms and the coproduct rows, not the algebra alone."""
    swap = HomAlgebra(2, "hom-associative", {"mul": Tensor3.zeros(2)}, Matrix([[0, 1], [1, 0]]))
    grouplike = sc_tensor(2, {(0, 0): {0: 1}, (1, 1): {1: 1}})  # delta(e_i) = e_i (x) e_i
    path = write_algebra("swap.json", swap, delta=grouplike)
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "PASS  hom-associativity" in out and "PASS  bialgebra-compatibility" in out
    for row in ("hom-coassociativity", "cocentroid-left", "cocentroid-right"):
        assert f"FAIL  {row}  witness at (1,)" in out
    assert main(["check", write_algebra("zero.json", swap, delta=Tensor3.zeros(2))]) == 0


def test_check_bialgebra_reads_its_algebra_once(workdir, dual_numbers, monkeypatch):
    calls = []
    read = docs.algebra_from_doc
    monkeypatch.setattr(docs, "algebra_from_doc", lambda doc: calls.append(doc) or read(doc))
    assert main(["check", write_algebra("bialg.json", dual_numbers,
                                        delta=Tensor3.zeros(2))]) == 0
    assert len(calls) == 1


def test_check_bialgebra_needs_a_single_product(workdir, capsys):
    dend = HomAlgebra(1, "hom-dendriform",
                      {"left": Tensor3.zeros(1), "right": Tensor3.zeros(1)}, Matrix.identity(1))
    assert main(["check", write_algebra("dend.json", dend, delta=Tensor3.zeros(1))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error: " in captured.err


def test_derive_commutator_and_cert_sibling(workdir, dual_numbers):
    path = write_algebra("dual.json", dual_numbers)
    assert main(["derive", "commutator-lie", path, "--out", "lie.json"]) == 0
    produced = docs.load_json("lie.json")
    assert produced["kind"] == "hom-lie"
    assert produced["provenance"]["functor"] == "commutator-lie"
    cert = docs.load_json("lie.json.cert.json")
    assert cert["passed"] is True


def test_derive_replay_is_bit_identical(workdir, dual_numbers):
    path = write_algebra("dual.json", dual_numbers)
    main(["derive", "commutator-lie", path, "--out", "a.json"])
    main(["derive", "commutator-lie", path, "--out", "b.json"])
    assert pathlib.Path("a.json").read_bytes() == pathlib.Path("b.json").read_bytes()


def test_derive_scale_zero_rejected(workdir):
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    path = write_algebra("pl.json", l)
    assert main(["derive", "scale", path, "--k", "0", "--out", "o.json"]) == 2
    assert main(["derive", "scale", path, "--k", "1/2", "--out", "o.json"]) == 0


def test_derive_module_pipeline(workdir, dual_numbers):
    path = write_algebra("dual.json", dual_numbers)
    assert main(["derive", "adjoint-bimodule", path, "--out", "bim.json"]) == 0
    docs.save_json("r.json", docs.operator_to_doc(Matrix([[0, 0], [1, 0]])))
    assert main(["derive", "oop-assoc-to-dendriform", "bim.json", "r.json",
                 "--out", "dend.json"]) == 0
    assert docs.load_json("dend.json")["kind"] == "hom-dendriform"
    assert main(["derive", "bimodule-to-lie-module", "bim.json",
                 "--out", "liemod.json"]) == 0


def test_derive_postlie_module_pipeline(workdir):
    l = catalog_algebra("hom-postlie", "skew-pair-postlie")
    path = write_algebra("pl.json", l)
    assert main(["derive", "adjoint-postlie-module", path, "--k", "1",
                 "--out", "self.json"]) == 0
    assert main(["derive", "tensor-modules", "self.json", "self.json",
                 "--k", "1", "--out", "tens.json"]) == 0
    assert docs.load_json("tens.json")["mdim"] == 9
    assert main(["derive", "twist-n0", "self.json", "--n", "2",
                 "--out", "tw.json"]) == 0
    assert main(["derive", "twist-0k", "self.json", "--k", "1",
                 "--out", "tw2.json"]) == 0


def test_derive_precondition_failure_exit(workdir, dual_numbers):
    path = write_algebra("dual.json", dual_numbers)
    docs.save_json("bad.json", docs.operator_to_doc(Matrix.identity(2)))
    # identity is not a weight-0 Rota-Baxter operator here
    assert main(["derive", "rb-dendriform", path, "bad.json",
                 "--weight", "0", "--out", "x.json"]) == 1


@pytest.mark.parametrize("functor", ["yau-twist", "rb-dendriform"])
def test_derive_missing_operator_is_input_error(workdir, dual_numbers, capsys, functor):
    path = write_algebra("dual.json", dual_numbers)
    assert main(["derive", functor, path, "--out", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "operator document" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("functor", ["direct-sum-modules", "tensor-modules",
                                     "twist-beta", "oop-lie-to-prelie",
                                     "oop-assoc-to-dendriform", "oop-assoc-to-prelie",
                                     "oop-assoc-to-ldendriform",
                                     "oop-prelie-to-dendriform"])
def test_derive_missing_second_input_is_input_error(workdir, dual_numbers, capsys,
                                                    functor):
    docs.save_json("bim.json", docs.module_to_doc(adjoint_bimodule(dual_numbers)))
    assert main(["derive", functor, "bim.json", "--out", "x.json"]) == 2
    assert "needs" in capsys.readouterr().err


def test_derive_ldend_pipeline(workdir):
    ld = catalog_algebra("hom-l-dendriform", "split-dual-ld")
    path = write_algebra("ld.json", ld)
    assert main(["derive", "ldend-to-prelie", path, "--mode", "vertical",
                 "--out", "v.json"]) == 0
    assert main(["derive", "ldend-brackets", path, "--out", "br.json"]) == 0
    assert main(["derive", "ldend-transpose", path, "--out", "t.json"]) == 0
    assert main(["derive", "prelie-module-split", path, "--out", "sp.json"]) == 0
    assert docs.load_json("sp.json")["kind"] == "prelie-bimodule"


def test_search_postlie_command(workdir, affine_lie):
    path = write_algebra("lie.json", affine_lie)
    assert main(["search-postlie", path, "--bound", "1", "--out", "found"]) == 0
    summary = docs.load_json("found/summary.json")
    assert summary["nullspace_dim"] == 4
    assert summary["candidates_tested"] == 81
    assert summary["survivors"] == 22
    files = sorted(os.listdir("found"))
    assert len(files) == 23  # survivors + summary
    # survivors certify standalone
    assert main(["check", "found/survivor_0000.json"]) == 0


def test_search_postlie_survivor_documents_carry_their_coefficients(workdir, affine_lie):
    path = write_algebra("lie.json", affine_lie)
    assert main(["search-postlie", path, "--bound", "1", "--out", "found"]) == 0
    expected = [(coeffs, mul) for coeffs, mul in search.iter_postlie_candidates(affine_lie, 1)
                if check_axioms(HomAlgebra(2, "hom-postlie", {"bracket": affine_lie.op("bracket"),
                                                              "mul": mul}, affine_lie.alpha)).passed]
    assert len(expected) == 22
    for idx, (coeffs, mul) in enumerate(expected):
        doc = docs.load_json(f"found/survivor_{idx:04d}.json")
        assert list(doc)[-1] == "provenance"
        assert doc["provenance"] == {"functor": "search-postlie",
                                     "params": {"bound": "1",
                                                "coeffs": ",".join(map(str, coeffs))},
                                     "inputs": [affine_lie.digest()]}
        assert docs.algebra_from_doc(doc).op("mul") == mul
    assert not os.path.exists(f"found/survivor_{len(expected):04d}.json")


def test_search_postlie_solves_the_linear_system_once(workdir, affine_lie, monkeypatch):
    calls = []

    def counted(l):
        calls.append(l)
        return solve(l)

    solve = search.postlie_linear_system
    monkeypatch.setattr(search, "postlie_linear_system", counted)
    path = write_algebra("lie.json", affine_lie)
    assert main(["search-postlie", path, "--bound", "1"]) == 0
    assert calls == [affine_lie]


def test_search_postlie_negative_bound_exit(workdir, affine_lie):
    path = write_algebra("lie.json", affine_lie)
    assert main(["search-postlie", path, "--bound", "-1"]) == 2


def test_post_lie_searches_call_the_public_names(workdir, affine_lie, monkeypatch):
    # the benchmark's tracer counts post-Lie searches by these bound names
    calls = []
    for module, name in ((harness, "postlie_search"), (harness, "iter_postlie_candidates"),
                         (cli, "postlie_search")):
        def counted(*args, real=getattr(module, name), key=f"{module.__name__}.{name}"):
            calls.append(key)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    items = [item for item in harness._build_search(1, 1, 0)
             if not item[0].startswith("abelian-2")]  # 6561 candidates each
    for item in items:
        calls.clear()
        assert harness._eval_search_consistency(item).ok
        assert sorted(calls) == ["homcert.harness.iter_postlie_candidates",
                                 "homcert.harness.postlie_search"]
    calls.clear()
    assert main(["search-postlie", write_algebra("lie.json", affine_lie), "--bound", "1"]) == 0
    assert calls == ["homcert.cli.postlie_search"]


def test_search_postlie_budget_exit(workdir):
    abelian3 = catalog_algebra("hom-lie", "abelian-3")
    path = write_algebra("ab3.json", abelian3)
    assert main(["search-postlie", path, "--bound", "1"]) == 3


def test_large_powers_exit_on_the_budget(workdir, capsys):
    # twist eigenvalue 4: beta^(2^k - 1) has entries of about 2^(k + 1) bits
    l = yau_twist(catalog_algebra("hom-postlie", "skew-pair-postlie"),
                  Matrix([[4, 0, 0], [0, 2, 0], [0, 0, 2]]))
    path = write_algebra("l.json", l)
    docs.save_json("self.json", docs.module_to_doc(adjoint_postlie_module(l)))
    for argv in (["twist-0k", "self.json", "--k", "20"], ["twist-0k", "self.json", "--k", "17"],
                 ["twist-n0", "self.json", "--n", str(2 ** 17)],
                 ["adjoint-postlie-module", path, "--k", str(2 ** 17)]):
        assert main(["derive", *argv, "--out", "out.json"]) == 3, argv
        assert "budget exceeded: a matrix power" in capsys.readouterr().err
    assert not os.path.exists("out.json")
    assert main(["derive", "twist-0k", "self.json", "--k", "4", "--out", "out.json"]) == 0


def test_certify_corpus_deterministic(workdir, capsys):
    assert main(["certify-corpus", "--trials", "2", "--max-dim", "2",
                 "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["certify-corpus", "--trials", "2", "--max-dim", "2",
                 "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "RESULT: PASS" in first


def test_certify_corpus_zero_trials_vacuous(workdir, capsys):
    assert main(["certify-corpus", "--trials", "0", "--max-dim", "2",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out


def test_certify_corpus_max_dim_zero_is_input_error(workdir, capsys):
    assert main(["certify-corpus", "--trials", "1", "--max-dim", "0"]) == 2
    assert "max_dim" in capsys.readouterr().err


def test_certify_corpus_negative_trials_is_input_error(workdir, capsys):
    assert main(["certify-corpus", "--trials", "-1", "--max-dim", "2"]) == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err and "RESULT" not in captured.out


@pytest.mark.parametrize("jobs", ["0", "-1", "-4"])
def test_certify_corpus_nonpositive_jobs_is_input_error(workdir, capsys, jobs):
    assert main(["certify-corpus", "--trials", "1", "--max-dim", "1", "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "jobs" in captured.err and "RESULT" not in captured.out


@pytest.mark.parametrize("field", ["dim", "mdim"])
def test_bool_dimension_is_input_error(workdir, field):
    one = HomAlgebra(1, "hom-associative", {"mul": Tensor3.zeros(1)},
                     Matrix.identity(1))
    doc = docs.module_to_doc(adjoint_bimodule(one))
    if field == "dim":
        doc = doc["algebra"]
    doc[field] = True
    docs.save_json("doc.json", doc)
    assert main(["check", "doc.json"]) == 2


@pytest.mark.parametrize("field", ["rows", "cols"])
def test_bool_operator_shape_is_input_error(workdir, field):
    one = HomAlgebra(1, "hom-associative", {"mul": Tensor3.zeros(1)},
                     Matrix.identity(1))
    path = write_algebra("one.json", one)
    doc = docs.operator_to_doc(Matrix.identity(1))
    docs.save_json("op.json", doc)
    assert main(["check", path, "op.json", "--predicate", "rota-baxter"]) == 0
    doc[field] = True
    docs.save_json("op.json", doc)
    assert main(["check", path, "op.json", "--predicate", "rota-baxter"]) == 2
    assert main(["derive", "yau-twist", path, "op.json", "--out", "x.json"]) == 2


def test_no_color_respected(workdir, affine_lie, monkeypatch):
    path = write_algebra("lie.json", affine_lie)
    monkeypatch.setenv("NO_COLOR", "1")
    result = subprocess.run(
        [sys.executable, "-m", "homcert.cli", "check", path],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "\x1b[" not in result.stdout
