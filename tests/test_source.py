"""Static checks over the package source."""

import ast
import importlib
import re
import runpy
from collections import Counter
from functools import cache, reduce
from pathlib import Path

import zarlat
from zarlat import errors, linalg
from conftest import readme_example

PACKAGE_DIR = Path(zarlat.__file__).resolve().parent
REPO_DIR = Path(__file__).resolve().parents[1]
TESTS_DIR = REPO_DIR / "tests"
PERFBENCH_DIR = REPO_DIR / "perfbench"

# ``(module, name)``: imports that nothing in their module reads.
# perfbench/selftest.py (test_tracer_rebinds_and_restores) checks that the
# tracer rebinds ``det`` in every module that imported it through these two,
# so they stay until that check reads ``lattice.det`` instead.
SELF_TEST_IMPORTS = (("zariski", "det"), ("bounds", "det"))


@cache
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _modules(*directories):
    return [path for directory in directories for path in sorted(directory.glob("*.py"))]


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so an invariant written as one
    # silently stops being checked; the package raises its own errors instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in _modules(PACKAGE_DIR)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


# The integer functions of ``math``; everything else in it works in floats.
EXACT_MATH = {"factorial", "gcd", "lcm", "prod"}


def _inexact(tree):
    """``(line, what)`` for each float or complex literal, true division
    (``/``, ``/=``), call of ``float``, ``round`` or ``complex``, and name
    from ``math`` outside ``EXACT_MATH`` in ``tree``."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "math"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in {"float", "round", "complex"}:
            yield node.lineno, f"{node.func.id}()"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases and node.attr not in EXACT_MATH:
            yield node.lineno, f"math.{node.attr}"


def test_exact_arithmetic_only():
    # Denominators are data: no float enters the package, so no result can
    # round.  The rule itself is checked on planted lines.
    assert sorted(_inexact(ast.parse(
        "import math as m\nfrom math import gcd, sqrt\nx = 1 / 2\nx /= 2\ny = 0.5 + 1j\n"
        "z = float(x) + round(x) + complex(x) + m.floor(x) + m.factorial(3) + x // 2\n"))) == [
        (2, "math.sqrt"), (3, "/"), (4, "/"), (5, "0.5"), (5, "1j"),
        (6, "complex()"), (6, "float()"), (6, "math.floor"), (6, "round()")]
    found = [f"{path.name}:{line}: {what}" for path in _modules(PACKAGE_DIR)
             for line, what in _inexact(_tree(path))]
    assert not found, f"inexact arithmetic in the package: {found}"


@cache
def _traced():
    """``TRACED`` of perfbench/spans.py: ``(module, attribute path, metric)``."""
    return runpy.run_path(str(PERFBENCH_DIR / "spans.py"))["TRACED"]


def test_benchmark_traced_names_resolve():
    # The benchmark's traced run wraps these names; one that no longer
    # resolves would break only that run, which this suite does not start.
    traced = _traced()
    missing = []
    for module_name, path, _ in traced:
        module = importlib.import_module(f"zarlat.{module_name}")
        try:
            reduce(getattr, path.split("."), module)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert traced and not missing, f"traced names missing from zarlat: {missing}"


def test_benchmark_self_test_rebinding_targets():
    # The imports the benchmark's self-test rebinds are kept, unused, for
    # that check alone, so a cleanup must not drop them.
    for module_name, name in SELF_TEST_IMPORTS:
        module = importlib.import_module(f"zarlat.{module_name}")
        assert getattr(module, name) is getattr(linalg, name), f"{module_name}.{name}"


def test_every_error_class_is_raised():
    # An error class whose last raiser is gone documents a failure that
    # cannot happen; a base class counts as raised through its subclasses.
    raised = {
        node.exc.func.id if isinstance(node.exc, ast.Call) else node.exc.id
        for path in _modules(PACKAGE_DIR)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Raise)
        and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
    }
    classes = [
        value for value in vars(errors).values()
        if isinstance(value, type) and value.__module__ == errors.__name__
    ]
    unraised = [
        cls.__name__ for cls in classes
        if not any(issubclass(other, cls) for other in classes if other.__name__ in raised)
    ]
    assert classes and not unraised, f"error classes never raised in the package: {unraised}"


def test_engine_and_oracle_share_no_elimination():
    # The oracle cross-checks the engine only while neither runs the other's
    # elimination: the engine's symmetric pass stays out of the oracle, and
    # the oracle's pivoting solve and inertia stay out of the engine.
    tree = _tree(PACKAGE_DIR / "zariski.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(function):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(functions[function])
                if isinstance(node, (ast.Name, ast.Attribute))}

    assert not names("decompose_bruteforce") & {"BorderedElimination", "is_exceptional"}
    assert not names("decompose") & {"bareiss_det", "bareiss_solve", "solve", "signature"}


def test_one_definiteness_certificate():
    # Every definiteness certificate in the engine goes through one verifier,
    # and one normalizer alone makes a witness primitive, so a second,
    # weaker check (one that skips the sign pattern) cannot come back.
    tree = _tree(PACKAGE_DIR / "zariski.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def calls(function):
        return {node.func.id for node in ast.walk(functions[function])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}

    for function in ("decomposition_checks", "exceptional_certificate"):
        assert "witness_certifies" in calls(function), function
    assert [name for name in functions if "gcd" in calls(name)] == ["primitive_witness"]


def _top_level_functions(name):
    tree = _tree(PACKAGE_DIR / name)
    return tree, {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _called_names(function):
    return [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_one_vector_conversion():
    # A rational vector becomes integers over one lcm in linalg alone, in
    # the one reader scaled_rationals, which the RationalMatrix constructor
    # shares (solve takes the lcm of two scales); the engine scales a divisor
    # once per call, and Cramer's rule runs on one elimination, not on a
    # determinant per column.
    for name in ("zariski.py", "bounds.py", "lattice.py", "cli.py"):
        tree, _ = _top_level_functions(name)
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.alias) and node.name == "lcm"
                or isinstance(node, ast.Attribute) and node.attr == "lcm"
                or isinstance(node, ast.Name) and node.id == "lcm"]
        assert not uses, f"{name} computes an lcm"
    linalg_tree, linalg_functions = _top_level_functions("linalg.py")
    assert [name for name, node in linalg_functions.items()
            if "lcm" in _called_names(node)] == ["scaled_rationals", "solve"]
    matrix = next(node for node in linalg_tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RationalMatrix")
    methods = {node.name: node for node in matrix.body if isinstance(node, ast.FunctionDef)}
    for method in ("__init__", "matvec"):
        assert "scaled_rationals" in _called_names(methods[method]), method
    _, zariski_functions = _top_level_functions("zariski.py")
    for consumer in ("decompose", "decompose_bruteforce", "in_nef_region", "decomposition_checks"):
        assert _called_names(zariski_functions[consumer]).count("_scaled_divisor") == 1, consumer
    _, bounds_functions = _top_level_functions("bounds.py")
    cramer = _called_names(bounds_functions["cramer_analysis"])
    assert cramer.count("bareiss_solve") == 1
    assert not {"det", "submatrix"} & set(cramer)


def test_one_generator_step_and_one_matrix_read():
    # The frozen SplitMix64 step is written once in the package, so no
    # second copy can drift from it: each of its constants occurs exactly
    # once, in the code and in the text.  The RationalMatrix constructor
    # reads its entries in exactly one call of the one reader, and it has one
    # way to gather them: no nested function and no generator.
    sources = sorted((REPO_DIR / "src").rglob("*.py"))
    text = "".join(path.read_text(encoding="utf-8") for path in sources).upper()
    constants = Counter(node.value for path in sources for node in ast.walk(_tree(path))
                        if isinstance(node, ast.Constant) and type(node.value) is int)
    for constant in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB):
        assert constants[constant] == 1, hex(constant)
        assert text.count(f"{constant:#X}") == 1, hex(constant)
    linalg_tree, _ = _top_level_functions("linalg.py")
    matrix = next(node for node in linalg_tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RationalMatrix")
    init = next(node for node in matrix.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert _called_names(init).count("scaled_rationals") == 1
    nested = [type(node).__name__ for node in ast.walk(init) if node is not init and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Yield, ast.YieldFrom))]
    assert nested == []


def test_integer_path_between_input_and_result():
    # The checks and the nef query compare integers only: they build no
    # Fraction and convert their inputs through the one linalg pass, not
    # through as_divisor.  The engine and the oracle build each
    # coefficient of P and N once from integers (_split): no subtraction reads
    # a Fraction-valued name, the divisor ``a`` or a part.  TestIntegerPath in
    # test_zariski.py checks the same at run time.
    _, functions = _top_level_functions("zariski.py")
    for name in ("decomposition_checks", "in_nef_region"):
        called = set(_called_names(functions[name]))
        assert not called & {"Fraction", "as_divisor"}, name
    fraction_names = {"a", "ai", "ni", "positive", "negative"}
    for name in ("decompose", "decompose_bruteforce", "_split"):
        subtracted = {leaf.id for node in ast.walk(functions[name])
                      if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                      for leaf in ast.walk(node) if isinstance(leaf, ast.Name)}
        assert not subtracted & fraction_names, name
    for name in ("decompose", "decompose_bruteforce"):
        assert "_split" in _called_names(functions[name]), name


def test_reader_builds_no_fraction():
    # The one reader and the divisor reader return integers over one scale;
    # a Fraction is built only for a result, or for the value an error
    # message shows.
    def built_outside_raise(function):
        in_raise = {id(node) for statement in ast.walk(function) if isinstance(statement, ast.Raise)
                    for node in ast.walk(statement)}
        return [node.lineno for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction" and id(node) not in in_raise]

    _, linalg_functions = _top_level_functions("linalg.py")
    _, zariski_functions = _top_level_functions("zariski.py")
    for functions, name in ((linalg_functions, "scaled_rationals"),
                            (zariski_functions, "_scaled_divisor")):
        assert not built_outside_raise(functions[name]), name


def _where(path, node, name):
    return f"{path.relative_to(REPO_DIR)}:{node.lineno} {name}"


_IDENTIFIER = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.arg: "arg"}


def _identifiers(tree, kinds):
    """How often each identifier occurs in ``tree`` in a node of ``kinds``."""
    return Counter(getattr(node, _IDENTIFIER[type(node)])
                   for node in ast.walk(tree) if type(node) in kinds)


def _definitions(tree):
    """``(name, statement)`` for every top-level function, class and assigned name."""
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            yield statement.name, statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, statement


def test_every_import_is_used():
    # A top-level import that its module never reads is dead code; the
    # package's __init__.py re-exports, so it is exempt.
    unused = []
    for path in _modules(PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        read = _identifiers(tree, {ast.Name})
        for statement in tree.body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
                continue
            for alias in statement.names:
                bound = alias.asname or alias.name.partition(".")[0]
                kept = path.parent == PACKAGE_DIR and (path.stem, bound) in SELF_TEST_IMPORTS
                if not read[bound] and not kept:
                    unused.append(_where(path, alias, bound))
    assert not unused, f"unused imports; delete them: {unused}"


def test_references_live_in_one_module():
    # Each operation has one specification, in tests/reference.py, so a
    # change that makes an operation faster compares it with that instead of
    # keeping its old code as one more copy; and a test module imports
    # helpers from conftest and reference alone, not from another test module.
    local = {path.stem for path in _modules(TESTS_DIR)}
    misplaced, imported = [], []
    for path in _modules(TESTS_DIR):
        tree = _tree(path)
        if path.name != "reference.py":
            misplaced += [_where(path, node, node.name) for node in tree.body
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and (node.name.startswith(("parent_", "Parent", "fraction_"))
                               or (ast.get_docstring(node) or "").startswith("Reference:"))]
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and node.module else [])
            imported += [_where(path, node, name) for name in names
                         if name.partition(".")[0] in local - {"conftest", "reference"}]
    assert not misplaced, f"references outside tests/reference.py: {misplaced}"
    assert not imported, f"test modules importing another test module: {imported}"


def test_every_top_level_name_is_referenced():
    # A top-level function, class or assignment is referenced outside its
    # definition: by name in its own module, or imported or read as an
    # attribute elsewhere.  A test requests a fixture as a parameter, so
    # parameter names in tests/ count; pytest itself collects test* and Test*.
    def kinds(path, own):
        return ({ast.Name} if own else {ast.alias, ast.Attribute}) | (
            {ast.arg} if path.parent == TESTS_DIR else set())

    referrers = _modules(PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR)
    foreign = {path: _identifiers(_tree(path), kinds(path, own=False)) for path in referrers}
    everywhere = sum(foreign.values(), Counter())
    unreferenced = []
    for path in _modules(PACKAGE_DIR, TESTS_DIR):
        own = _identifiers(_tree(path), kinds(path, own=True))
        for name, statement in _definitions(_tree(path)):
            if name.startswith(("test", "Test")) or re.fullmatch(r"__\w+__", name):
                continue
            inside = _identifiers(statement, kinds(path, own=True))
            if not own[name] - inside[name] + everywhere[name] - foreign[path][name]:
                unreferenced.append(_where(path, statement, name))
    assert not unreferenced, f"unreferenced top-level names; delete them: {unreferenced}"


def _self_reads(tree):
    """How often each name is read as ``self.<name>`` in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "self")


def _reads(tree, kinds):
    """:func:`_identifiers` of ``kinds`` in ``tree``, ``self.<name>`` reads left out."""
    return _identifiers(tree, kinds) - _self_reads(tree)


def test_public_api_is_used():
    # Every name zarlat exports and every public method or property of a
    # package class is read outside its own definition, by the package or by
    # the library example of README.md (a doctest, parsed as code), or is
    # traced by the benchmark (perfbench/spans.py).  A method counts as read
    # only through an attribute (``x.square``), since a bare name is some
    # other variable, and a ``self.square`` read counts only for the class
    # it appears in, since another class's ``square`` is another method;
    # prose and inline code spans count for nothing.
    example = ast.parse("".join(step.source for step in readme_example().examples))
    modules = [path for path in _modules(PACKAGE_DIR) if path.name != "__init__.py"]
    by_name, by_attribute = frozenset({ast.Name, ast.Attribute}), frozenset({ast.Attribute})
    read = {kinds: sum((_reads(tree, kinds) for tree in [*map(_tree, modules), example]),
                       Counter())
            for kinds in (by_name, by_attribute)}
    traced = {(module, path) for module, path, _ in _traced()}
    # (defining module, qualified name, name, definition, node kinds that read
    # it, the class whose self reads count, or None)
    public = []
    for statement in _tree(PACKAGE_DIR / "__init__.py").body:
        if isinstance(statement, ast.ImportFrom):
            path = PACKAGE_DIR / f"{statement.module}.py"
            definitions = dict(_definitions(_tree(path)))
            public += [(path, alias.name, alias.name, definitions[alias.name], by_name, None)
                       for alias in statement.names]
    for path in modules:
        for cls in _tree(path).body:
            if isinstance(cls, ast.ClassDef):
                public += [(path, f"{cls.name}.{node.name}", node.name, node, by_attribute, cls)
                           for node in cls.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unused = [
        _where(path, node, qualified) for path, qualified, name, node, kinds, cls in public
        if read[kinds][name] == _reads(node, kinds)[name]
        and (cls is None or _self_reads(cls)[name] == _self_reads(node)[name])
        and (path.stem, qualified) not in traced
    ]
    assert not unused, f"public names nothing reads or traces; delete them: {unused}"


def test_every_record_field_is_read():
    # A field of a package NamedTuple is read as an attribute (``x.volume``)
    # in the package, tests/, perfbench/ or the library example of README.md;
    # one that nothing reads copies a value another record holds, or is dead.
    example = ast.parse("".join(step.source for step in readme_example().examples))
    trees = [*map(_tree, _modules(PACKAGE_DIR, TESTS_DIR, PERFBENCH_DIR)), example]
    read = Counter(node.attr for tree in trees for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [_where(path, field, f"{cls.name}.{field.target.id}")
              for path in _modules(PACKAGE_DIR) for cls in _tree(path).body
              if isinstance(cls, ast.ClassDef)
              and any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
              for field in cls.body if isinstance(field, ast.AnnAssign) and not read[field.target.id]]
    assert not unread, f"record fields nothing reads; delete them: {unread}"
