"""Layout guard: what a model family is gets decided on its class alone.

Walks the package source with ast and fails on any isinstance or issubclass
naming a family class, any comparison against a family class or against a
family's config or class name, any dict keyed by family classes, and any
match case on them, outside the family classes themselves. The families and
their names come from the registry, so a new family is guarded as soon as it
is registered.
"""

import ast
from pathlib import Path

import sinrdist
from sinrdist.intensity import FAMILIES

SOURCE = Path(sinrdist.__file__).parent
CLASSES = {cls.__name__ for cls in FAMILIES.values()}
STRINGS = set(FAMILIES) | CLASSES


def _names(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _strings(node):
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _is_family_check(node) -> bool:
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and bool(_names(node.args[1]) & CLASSES)
        )
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(_names(o) & CLASSES or _strings(o) & STRINGS for o in operands)
    if isinstance(node, ast.Dict):
        return any(key is not None and _names(key) & CLASSES for key in node.keys)
    if isinstance(node, ast.MatchClass):
        return bool(_names(node.cls) & CLASSES)
    if isinstance(node, ast.MatchValue):
        return bool(_strings(node.value) & STRINGS)
    return False


def family_checks(tree):
    """Every family check in the tree outside the family classes."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            return
        if _is_family_check(node):
            found.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_no_family_checks_outside_the_family_classes():
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in family_checks(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


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
