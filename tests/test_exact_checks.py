"""No check in the package may be sampled, and the Galois action has one form.

The one randomized draw is the fixed-seed search for a nonsingular form in
``forms.realize_adjoint_form``; it picks a witness and checks nothing.  Every
other module must not import ``random``.  The one root-vector twist is the
table build's, which defines the values on the other classes of a rational
class; everywhere else the Galois action is a power map on the classes.  The
constraint systems of the forms are built and reduced in integers, on the gram
and sigma scaled once to integers, and so are the rank certificate of the skew
span, the axiom checks of an involution and the trace formula of a component.
The linear algebra module is integers only: an exact subspace has one
representation, its canonical integer basis, and every elimination mod a prime
reduces its rows through one routine.  The integral skew lattice is read from
the involution's basis of QG^-, not solved for: no module defines or imports an
HNF.  No module of the package or of the tests imports a name it never reads.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "skewlie"


def _imports_random(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "random" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            return True
    return False


def _imports_name(path: Path, name: str) -> bool:
    return any(isinstance(node, (ast.Import, ast.ImportFrom))
               and any(alias.name.split(".")[-1] == name for alias in node.names)
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_forms_imports_random():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [p.stem for p in modules if _imports_random(p)] == ["forms"]


def test_no_true_division_in_the_package():
    """Every quotient in the package is exact: // on integers, or a fraction that
    serialize.frac_str prints, so no float reaches an output or an error message."""
    divisions = [(p.stem, node.lineno) for p in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(p.read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == []


def test_only_the_table_build_imports_the_root_vector_twist():
    modules = sorted(SRC.glob("*.py"))
    assert [p.stem for p in modules if _imports_name(p, "twist_root_vector")] == ["wedderburn"]



def test_no_module_defines_or_imports_hnf():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "hnf" not in defined and not _imports_name(path, "hnf"), path.name


CONSTRAINT_BUILDERS = {
    "forms": ("_functional_space", "_draw_gram", "_equals_combination",
              "_skew_adjoint_blocks", "_skew_adjoint_rows", "skew_adjoint_space",
              "_blocks_solve", "_pairs_solve", "adjoint_space_matches_skew_span",
              "check_adjoint_identity"),
    "linalg": ("_echelon", "row_basis", "null_space", "rank_mod_p_reaches", "reduce_mod_p"),
    "involutions": ("eigen_rows", "__post_init__", "_signed_axioms_hold", "_sparse_sum"),
    "wedderburn": ("_trace", "component_skew_dim"),
}


def test_form_constraints_are_built_in_integers():
    """The constraint builders of the forms, the gram draw, the row comparisons, the
    skew-span certificate in both of its readings, the rank mod p, the rows g -+ sigma(g),
    the involution axioms on d*sigma and on a signed permutation, and the one trace of a
    component, on QG or on its center, call no Fraction( and read no ZERO."""
    for module, wanted in CONSTRAINT_BUILDERS.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        builders = {node.name: node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name in wanted}
        assert sorted(builders) == sorted(wanted), module
        for name, fn in builders.items():
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            assert not names & {"Fraction", "ZERO"}, name


def _calls(module: str, function: str) -> set[str]:
    """The names that one top-level function of a module calls."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_every_elimination_mod_p_reduces_through_one_routine():
    """The rank certificate and the Krylov split of the table both reduce their rows
    through linalg.reduce_mod_p, so no second row-reduction loop mod p comes back; the
    children of a split are packed combinations, not one sum per column."""
    assert "reduce_mod_p" in _calls("linalg", "rank_mod_p_reaches")
    assert "reduce_mod_p" in _calls("wedderburn", "_minimal_polynomial")
    assert {"pack", "unpack_mod", "slot_words"} <= _calls("wedderburn", "_split")


def test_wedderburn_takes_only_the_row_reduction_mod_p_from_linalg():
    """The center of a component is read by a trace, so no rank certificate or exact
    rank comes back into the table or the classification; the table takes the row
    reduction mod p and the packed rows of its Krylov split."""
    tree = ast.parse((SRC / "wedderburn.py").read_text())
    names = [((getattr(node, "module", None) or "").split(".")[-1], alias.name)
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert [name for module, name in names if module == "linalg"] == [
        "pack", "reduce_mod_p", "slot_words", "unpack_mod"]
    assert not any(name.split(".")[-1] == "linalg" for _, name in names)


def test_linalg_imports_nothing_from_fractions():
    """Nor do the table, the classification and the indicators: all integer arithmetic."""
    for name in ("linalg.py", "wedderburn.py", "indicators.py"):
        tree = ast.parse((SRC / name).read_text())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert modules and "fractions" not in modules, name


def _unread_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; a name in a string annotation is read."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.returns]
    strings = [ast.parse(node.value, mode="eval") for a in annotations for node in ast.walk(a)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    read = {node.id for root in [tree, *strings] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    assert {p.name: names for p in modules if (names := _unread_imports(p))} == {}
