"""JSON document formats for algebras, modules, and operators.

Rationals are serialized as canonical strings ("p/q", or "p" when the
denominator is 1), never as JSON numbers, so exactness survives any tool in
the pipeline.  Key order and array order are fixed, making
parse -> serialize -> parse the identity and serialized bytes stable.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .errors import InputError
from .exactlin import Matrix, Tensor3, rat_str
from .homcore import KIND_OPS, EpsilonHomBialgebra, HomAlgebra
from .hommod import MODULE_KINDS, HomModule

SCHEMA_VERSION = "1"


def _matrix_to_lists(m: Matrix) -> list:
    return [[rat_str(v) for v in row] for row in m.data]


def _matrix_from_lists(rows, what="matrix", cols=0) -> Matrix:
    """The matrix of these rows; ``cols`` counts the columns of one without rows."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be an array of arrays")
    try:
        return Matrix(rows, cols)
    except (InputError, TypeError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _tensor_to_lists(t: Tensor3) -> list:
    return [[[rat_str(t[i, j, k]) for k in range(t.d3)]
             for j in range(t.d2)] for i in range(t.d1)]


def _tensor_from_lists(nested, what="tensor") -> Tensor3:
    if not (isinstance(nested, list) and all(
            isinstance(plane, list) and all(isinstance(line, list) for line in plane)
            for plane in nested)):
        raise InputError(f"{what} must be an array of arrays of arrays")
    try:
        return Tensor3.from_nested(nested)
    except (InputError, TypeError, IndexError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def algebra_to_doc(a: HomAlgebra, delta: Optional[Tensor3] = None,
                   provenance: Optional[dict] = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": a.kind, "dim": a.dim}
    doc["alpha"] = _matrix_to_lists(a.alpha)
    names = KIND_OPS[a.kind] or tuple(sorted(a.ops))
    doc["ops"] = {name: _tensor_to_lists(a.ops[name]) for name in names}
    if delta is not None:
        doc["delta"] = _tensor_to_lists(delta)
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def algebra_from_doc(doc: dict) -> HomAlgebra:
    _check_header(doc)
    kind = doc.get("kind")
    dim = _count(doc.get("dim"), "dim")
    if not isinstance(kind, str) or kind not in KIND_OPS:
        raise InputError(f"unknown algebra kind {kind!r}")
    alpha = _matrix_from_lists(doc.get("alpha"), "alpha")
    ops_doc = doc.get("ops")
    if not isinstance(ops_doc, dict):
        raise InputError("ops must be a map of product name to tensor")
    ops = {name: _tensor_from_lists(t, f"ops[{name}]") for name, t in ops_doc.items()}
    return HomAlgebra(dim, kind, ops, alpha)


def bialgebra_from_doc(doc: dict) -> EpsilonHomBialgebra:
    return bialgebra_over(algebra_from_doc(doc), doc)


def bialgebra_over(a: HomAlgebra, doc: dict) -> EpsilonHomBialgebra:
    """The bialgebra of doc's coproduct on a, the algebra read from doc."""
    if "delta" not in doc:
        raise InputError("document has no coproduct (delta)")
    delta = _tensor_from_lists(doc["delta"], "delta")
    return EpsilonHomBialgebra(a.dim, a.single_op(), delta, a.alpha)


def module_to_doc(m: HomModule, algebra_ref: Optional[str] = None,
                  provenance: Optional[dict] = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": m.kind}
    doc["algebra"] = algebra_ref if algebra_ref else algebra_to_doc(m.algebra)
    doc["mdim"] = m.mdim
    doc["beta"] = _matrix_to_lists(m.beta)
    names = MODULE_KINDS[m.kind][1]
    doc["actions"] = {name: [_matrix_to_lists(mat) for mat in m.actions[name]]
                      for name in names}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def module_from_doc(doc: dict, base_dir: str = ".") -> HomModule:
    _check_header(doc)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODULE_KINDS:
        raise InputError(f"unknown module kind {kind!r}")
    alg_field = doc.get("algebra")
    if isinstance(alg_field, str):
        algebra = algebra_from_doc(load_json(os.path.join(base_dir, alg_field)))
    elif isinstance(alg_field, dict):
        algebra = algebra_from_doc(alg_field)
    else:
        raise InputError("algebra must be an inline document or a file reference")
    mdim = _count(doc.get("mdim"), "mdim")
    beta = _matrix_from_lists(doc.get("beta"), "beta")
    actions_doc = doc.get("actions")
    if not isinstance(actions_doc, dict):
        raise InputError("actions must be a map of action name to matrix family")
    actions = {}
    for name, family in actions_doc.items():
        if not isinstance(family, list):
            raise InputError(f"action {name!r} must be an array of matrices")
        actions[name] = tuple(_matrix_from_lists(mat, f"actions[{name}]")
                              for mat in family)
    return HomModule(algebra, mdim, beta, actions, kind)


def operator_to_doc(m: Matrix, provenance: Optional[dict] = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": "operator",
           "rows": m.rows, "cols": m.cols, "entries": _matrix_to_lists(m)}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def operator_from_doc(doc: dict) -> Matrix:
    _check_header(doc)
    if doc.get("kind") != "operator":
        raise InputError("not an operator document")
    rows, cols = _count(doc.get("rows"), "rows"), _count(doc.get("cols"), "cols")
    m = _matrix_from_lists(doc.get("entries"), "entries", cols)
    if m.rows != rows or m.cols != cols:
        raise InputError("operator entries do not match the declared shape")
    return m


def _count(value, what: str) -> int:
    # bool subclasses int, but true is not a dimension
    if type(value) is not int or value < 0:
        raise InputError(f"{what} must be a non-negative integer")
    return value


def _check_header(doc):
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {doc.get('schema_version')!r}")


def document_type(doc: dict) -> str:
    """Sniff a parsed document: algebra, bialgebra, module, or operator."""
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if doc.get("kind") == "operator":
        return "operator"
    if "actions" in doc:
        return "module"
    if "delta" in doc:
        return "bialgebra"
    if "ops" in doc:
        return "algebra"
    raise InputError("cannot determine document type")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8, ...
        raise InputError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None


def save_json(path: str, doc: dict):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc))
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):  # written, but the rename failed
            os.remove(tmp)
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def make_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {path}: {exc.strerror or exc}") from None
