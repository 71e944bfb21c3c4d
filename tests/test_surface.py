"""The package exports only names that a command, a benchmark workload or an
acceptance criterion reaches."""

import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gebshrink"

# exported for the unit tests, which compare against them as references
TEST_REFERENCES = {
    "james_stein": "the small-block policy and the james-stein estimator are checked against it",
    "mixture_density": "the one-pass density and shift are checked against its raw Gaussian sums",
}


def _loaded(node):
    """Names read anywhere under ``node``, as a Name or an Attribute."""
    seen = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            seen.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            seen.add(sub.attr)
    return seen


def _defined(stmt):
    """Top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _reached_names():
    """Names reached from the command line, the benchmark harness and the
    acceptance criteria, following the package's top-level definitions: a
    name used only inside an unreached definition is not reached."""
    roots = [PACKAGE / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    roots.append(ROOT / "tests" / "test_acceptance.py")
    reached = set().union(*(_loaded(ast.parse(p.read_text())) for p in roots))
    uses = {}  # top-level package name -> names its definition reads
    for path in PACKAGE.glob("*.py"):
        if path.name in ("__init__.py", "cli.py"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            if names:
                for name in names:
                    uses.setdefault(name, set()).update(_loaded(stmt))
            else:  # imports and other statements run on import
                reached |= _loaded(stmt)
    frontier = set(reached)
    while frontier:
        frontier = set().union(*(uses.get(n, set()) for n in frontier)) - reached
        reached |= frontier
    return reached


def _literal(path, name):
    """The literal bound to the top-level ``name`` of the module at ``path``."""
    (value,) = [
        node.value
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return ast.literal_eval(value)


def _exported_names():
    """The names in the package's lazy export table, read from the source."""
    table = _literal(PACKAGE / "__init__.py", "_MODULES")
    return {name for names in table.values() for name in names}


def test_every_export_resolves_to_its_module():
    import gebshrink

    for module, names in gebshrink._MODULES.items():
        source = importlib.import_module(f"gebshrink.{module}")
        for name in names:
            assert getattr(gebshrink, name) is getattr(source, name), name
    assert sorted(gebshrink.__all__) == sorted(_exported_names())


def test_every_export_is_reached_outside_the_unit_tests():
    exported = _exported_names()
    assert set(TEST_REFERENCES) <= exported
    unreached = sorted(exported - _reached_names() - set(TEST_REFERENCES))
    assert unreached == [], f"exported but reached only from unit tests: {unreached}"


def _unused_imports(tree):
    """Top-level imports of a module whose bound name it never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


def test_no_module_imports_a_name_it_never_reads():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}, f"imported but never read: {unused}"


# benchmark spans that are not public functions of their layer: the ones the
# tracer opens around rule calls, integrands and replicate draws, and two that
# nothing opens any more (ROADMAP item 3 drops them with the benchmark revision)
SYNTHETIC_SPANS = {"mixture.rule_apply", "mixture.integrand", "risklab.draw_blocks"}
DEAD_SPANS = {"kde.spectrum", "thresholds.integrand"}


def test_every_benchmark_span_is_a_public_function_of_its_layer():
    layers = _literal(ROOT / "perfbench" / "tracing.py", "LAYERS")
    run = ROOT / "perfbench" / "run.py"
    spans = set(_literal(run, "SPAN_SELF")) | set(_literal(run, "SPAN_CALLS"))
    assert SYNTHETIC_SPANS | DEAD_SPANS <= spans
    missing = []
    for span in sorted(spans - SYNTHETIC_SPANS - DEAD_SPANS):
        layer, _, name = span.partition(".")
        assert layer in layers, span
        module = importlib.import_module(f"gebshrink.{layer}")
        fn = getattr(module, name, None)
        # the tracer wraps a layer's own public functions only
        if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(span)
    assert missing == [], f"benchmark spans the tracer cannot open: {missing}"


def test_the_tracer_finds_what_it_reads():
    import numpy as np

    from gebshrink import kde, mixture, quadrature, risklab

    # wrapped by identity, and wrapped on each rule class and on the truth source
    assert inspect.isfunction(quadrature.integrate)
    assert inspect.isclass(mixture.ScalarRule)
    assert "draw_blocks" in vars(risklab.TruthSource)
    # read after every traced kde_eval
    assert kde.kde_fit(np.random.default_rng(0).standard_normal(64)).mode in ("direct", "fourier")
