"""Every public top-level function and class in the package has a caller in
the package. A name that only tests use backs no claim of the pipeline, so it
should go; the few names that exist to support tests are listed below, each
with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latgauss"

TEST_SUPPORT = {
    "ZeroStream": "switches the diffusion off, so a chain can be checked as gradient descent",
    "random_smooth_net": "random nets with square and tanh layers for the derivative checks",
    "generator_network": "the sign generator as a network, to check it is not smooth",
}


def public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def references(tree, name, skip):
    """Name loads and attribute accesses of `name` outside the node `skip`.
    An import alone is no reference."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uncalled, stale, defined = [], [], set()
    for module, tree in trees.items():
        for node in public_definitions(tree):
            defined.add(node.name)
            called = any(references(other, node.name, node) for other in trees.values())
            if node.name in TEST_SUPPORT:
                if called:  # the allowlist entry is no longer needed
                    stale.append(node.name)
            elif not called:
                uncalled.append(f"{module}:{node.lineno} {node.name}")
    assert not uncalled, f"no caller in src/: {uncalled}"
    assert not stale, f"allowlisted names that now have a caller: {stale}"
    assert set(TEST_SUPPORT) <= defined, set(TEST_SUPPORT) - defined
