"""Layout guard: what a model family or an experiment kind is gets decided on
its class alone.

Walks the package source with ast and fails on any isinstance or issubclass
naming a family or kind class, any comparison against such a class or
against its config or class name, any dict keyed by them, and any match case
on them, outside the classes themselves. The names come from the registries
(FAMILIES and KINDS), so a new family or kind is guarded as soon as it is
registered.

Also pins psi to one module: its closed forms live in interference, beside
the quadratures and PsiEvaluator, and intensity holds only the point process.
"""

import ast
from pathlib import Path

import pytest

import sinrdist
import sinrdist.intensity
import sinrdist.interference
from sinrdist.cli import KINDS
from sinrdist.intensity import FAMILIES

SOURCE = Path(sinrdist.__file__).parent


def _names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _strings(node):
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _is_check(node, classes, strings) -> bool:
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and bool(_names(node.args[1]) & classes)
        )
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(_names(o) & classes or _strings(o) & strings for o in operands)
    if isinstance(node, ast.Dict):
        return any(
            key is not None and (_names(key) & classes or _strings(key) & strings)
            for key in node.keys
        )
    if isinstance(node, ast.MatchClass):
        return bool(_names(node.cls) & classes)
    if isinstance(node, ast.MatchValue):
        return bool(_strings(node.value) & strings)
    return False


def registry_checks(tree, registry):
    """Every check on the registry's classes or names in the tree, outside
    those classes."""
    classes = {cls.__name__ for cls in registry.values()}
    strings = set(registry) | classes
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            return
        if _is_check(node, classes, strings):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def family_checks(tree):
    return registry_checks(tree, FAMILIES)


def kind_checks(tree):
    return registry_checks(tree, KINDS)


def _checks_in_source(checks):
    return [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in checks(ast.parse(path.read_text(), str(path)))
    ]


def test_no_family_checks_outside_the_family_classes():
    assert _checks_in_source(family_checks) == []


def test_no_kind_checks_outside_the_kind_classes():
    assert _checks_in_source(kind_checks) == []


def test_guard_sees_every_kind_of_family_check():
    source = '''
isinstance(m, PowerLaw)
issubclass(t, (GaussianCluster, int))
family == "power_law"
kind in ("gaussian_cluster", "other")
type(m) is PiecewisePowerLaw
m.__class__.__name__ != "PolynomialWithTail"
names = {PowerLaw: "power_law"}
match m:
    case GaussianCluster():
        pass
    case "piecewise_power_law":
        pass

class PowerLaw:
    def same(self, other):
        return isinstance(other, PowerLaw) and self.family == "power_law"
'''
    assert len(family_checks(ast.parse(source))) == 9


def test_guard_sees_every_kind_of_experiment_kind_check():
    source = '''
config.kind == "simulate"
kind in ("cdf", "pdf")
isinstance(config, SamplePoints)
type(config) is not Scaling
runners = {"outage-sweep": run, "other": None}
helps = {FitPoly: "table"}
match kind:
    case "sample-points":
        pass
    case Simulate():
        pass

class Cdf:
    kind = "cdf"

    def columns(self):
        return self.kind == "cdf" or isinstance(self, Cdf)
'''
    assert len(kind_checks(ast.parse(source))) == 8


@pytest.mark.parametrize(
    "name", ["psi_power_law", "psi_piecewise", "psi_polynomial", "_psi_sum", "_piece_psi"]
)
def test_psi_closed_forms_live_in_interference(name):
    assert getattr(sinrdist.interference, name).__module__ == "sinrdist.interference"
    assert not hasattr(sinrdist.intensity, name)


def test_intensity_has_no_hypergeometric_kernel():
    assert not hasattr(sinrdist.intensity, "hyp2f1_first_unit")
