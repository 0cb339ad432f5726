"""Capture-aware rewriting over expression and proposition trees.

Substitution skips every subtree in which the name is not free, using the
free-variable set each node caches, so rewriting a proposition that does
not mention the name returns it unchanged in O(1).
"""

from __future__ import annotations

from typing import Callable

from ..lang import nodes as N


def transform(node, fn: Callable):
    """Rebuild an expression or a proposition bottom-up, applying ``fn(node)``
    at each level.

    ``fn`` returns either a replacement node (taken as-is, not descended into;
    returning ``node`` itself keeps the subtree) or None to keep the node with
    its children transformed.  A node none of whose children changed is
    returned as is.
    """
    replacement = fn(node)
    if replacement is not None:
        return replacement
    changed = None
    for name in node._fields:
        value = getattr(node, name)
        if not isinstance(value, N.Node):
            continue
        new_value = transform(value, fn)
        if new_value is not value:
            if changed is None:
                changed = {}
            changed[name] = new_value
    if changed is None:
        return node
    return type(node)(span=node.span,
                      **{f: changed.get(f, getattr(node, f))
                         for f in node._fields})


def free_vars(node) -> frozenset[str]:
    """Names of free variables (including function heads in Apply/Deriv).

    Built bottom-up from the children's sets and cached on the node.
    """
    cached = node.__dict__.get("_free_vars")
    if cached is not None:
        return cached
    if isinstance(node, N.Var):
        names = frozenset((node.name,))
    else:
        names = frozenset().union(*map(free_vars, N.children(node)))
        if isinstance(node, (N.Apply, N.Deriv)):
            names = names | {node.fn}
        elif isinstance(node, (N.ForallFn, N.ForallFinite)):
            names = names - {node.var}
    node.__dict__["_free_vars"] = names
    return names


def subst_var(node, name: str, replacement: N.Expr):
    """Substitute ``replacement`` for every free occurrence of variable ``name``."""

    def visit(n):
        if name not in free_vars(n):  # absent, or bound by a quantifier
            return n
        if isinstance(n, N.Var):
            return replacement
        return None

    return transform(node, visit)


def expand_fn(node, fname: str, binder: str, body: N.Expr):
    """Unfold ``fname`` applications: ``fname(arg)`` becomes ``body[binder := arg]``.

    Arguments are expanded before the body is instantiated, so nested
    applications unfold in one pass.  ``body`` must not apply ``fname``.
    """

    def visit(n):
        # An expression binds no name, so every head in it is free there.
        if isinstance(n, N.Expr) and fname not in free_vars(n):
            return n
        if isinstance(n, N.Apply) and n.fn == fname:
            arg = transform(n.arg, visit)
            return subst_var(body, binder, arg)
        return None

    return transform(node, visit)


def rewrite_ground(node, pattern: N.Expr, replacement: N.Expr):
    """Replace every subtree structurally equal to ``pattern``."""
    names = free_vars(pattern)

    def visit(n):
        if isinstance(n, N.Expr):
            # An expression binds no name: a match needs all of the
            # pattern's names free in it.
            if not names <= free_vars(n):
                return n
            if N.ast_eq(n, pattern):
                return replacement
        return None

    return transform(node, visit)


def applied_fns(node) -> set[str]:
    """Function names appearing as Apply or Deriv heads, outside the scope
    of a quantifier that binds the same name.

    ``node`` is an expression or a proposition; none of their fields holds a
    tuple of nodes, so the walk reads ``_fields`` directly (faster than
    :func:`~physkernel.lang.nodes.children`).
    """
    out: set[str] = set()
    bound: list[str] = []  # binders of the enclosing quantifiers

    def visit(n) -> None:
        if isinstance(n, (N.Apply, N.Deriv)) and n.fn not in bound:
            out.add(n.fn)
        binds = isinstance(n, (N.ForallFn, N.ForallFinite))
        if binds:
            bound.append(n.var)
        for name in n._fields:
            child = getattr(n, name)
            if isinstance(child, N.Node):
                visit(child)
        if binds:
            bound.pop()

    visit(node)
    return out
