"""Capture-aware rewriting over expression and proposition trees.

Substitution skips every subtree in which the name is not free, using the
free-variable set each node caches, so rewriting a proposition that does
not mention the name returns it unchanged in O(1).
"""

from __future__ import annotations

from typing import Callable

from ..lang import nodes as N


def transform(node, fn: Callable, *, shadowed: frozenset[str] = frozenset()):
    """Rebuild ``node`` bottom-up, applying ``fn(node, shadowed)`` at each level.

    ``fn`` returns either a replacement node (taken as-is, not descended into;
    returning ``node`` itself keeps the subtree) or None to keep the node with
    its children transformed.  Quantifier binders extend ``shadowed`` for
    their bodies.  A node none of whose children changed is returned as is.
    """
    replacement = fn(node, shadowed)
    if replacement is not None:
        return replacement
    if isinstance(node, (N.ForallFn, N.ForallFinite)):
        shadowed = shadowed | {node.var}
    changed = None
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, N.Node):
            new_value = transform(value, fn, shadowed=shadowed)
        elif isinstance(value, tuple):
            new_value = _transform_tuple(value, fn, shadowed)
        else:
            continue
        if new_value is not value:
            if changed is None:
                changed = {}
            changed[name] = new_value
    if changed is None:
        return node
    return type(node)(span=node.span,
                      **{f: changed.get(f, getattr(node, f))
                         for f in node._fields})


def _transform_tuple(value: tuple, fn, shadowed) -> tuple:
    items = tuple(
        transform(v, fn, shadowed=shadowed) if isinstance(v, N.Node)
        else _transform_tuple(v, fn, shadowed) if isinstance(v, tuple)
        else v
        for v in value)
    if all(a is b for a, b in zip(items, value)):
        return value
    return items


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

    def visit(n, shadowed):
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

    def visit(n, shadowed):
        # An expression binds no name, so every head in it is free there.
        if isinstance(n, N.Expr) and fname not in free_vars(n):
            return n
        if isinstance(n, N.Apply) and n.fn == fname:
            arg = transform(n.arg, visit, shadowed=shadowed)
            return subst_var(body, binder, arg)
        return None

    return transform(node, visit)


def rewrite_ground(node, pattern: N.Expr, replacement: N.Expr):
    """Replace every subtree structurally equal to ``pattern``."""
    names = free_vars(pattern)

    def visit(n, shadowed):
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
    """Function names appearing as Apply or Deriv heads."""
    out: set[str] = set()

    def visit(n, shadowed):
        if isinstance(n, (N.Apply, N.Deriv)) and n.fn not in shadowed:
            out.add(n.fn)
        return None

    transform(node, visit)
    return out
