"""Capture-aware rewriting over expression and proposition trees.

Substitution skips every subtree in which the name is not free, using the
free-variable set each node caches, so rewriting a proposition that does
not mention the name returns it unchanged in O(1).  A quantifier that would
capture a free name of the inserted tree has its bound name renamed to
``<name>!<k>``, a name the parser never reads.  :class:`Substitution`
records variable definitions and applies them only to the trees that are
read.
"""

from __future__ import annotations

from typing import Callable

from ..lang import nodes as N
from ..record import replace


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


def _rename_binder(q, avoid: frozenset[str]):
    """Quantifier ``q`` with its bound name renamed to ``<name>!<k>``, free
    neither in its body nor in ``avoid``: a tree with free names ``avoid``
    can then be inserted in the body without being captured."""
    taken = free_vars(q.body) | avoid
    k = 1
    while f"{q.var}!{k}" in taken:
        k += 1
    fresh = f"{q.var}!{k}"
    return replace(q, var=fresh, body=subst_var(q.body, q.var, N.Var(fresh)))


def subst_var(node, name: str, replacement: N.Expr):
    """Substitute ``replacement`` for every free occurrence of variable
    ``name``, renaming a binder that would capture one of its names."""
    names = free_vars(replacement)

    def visit(n):
        if name not in free_vars(n):  # absent, or bound by a quantifier
            return n
        if isinstance(n, N.Var):
            return replacement
        if isinstance(n, (N.ForallFn, N.ForallFinite)) and n.var in names:
            return subst_var(_rename_binder(n, names), name, replacement)
        return None

    return transform(node, visit)


def expand_fn(node, fname: str, binder: str, body: N.Expr):
    """Unfold ``fname`` applications: ``fname(arg)`` becomes ``body[binder := arg]``.

    Arguments are expanded before the body is instantiated, so nested
    applications unfold in one pass.  ``body`` must not apply ``fname``.  A
    binder that would capture a free name of ``body`` is renamed.
    """
    names = free_vars(body) - {binder}

    def visit(n):
        # An expression binds no name, so every head in it is free there.
        if isinstance(n, N.Expr) and fname not in free_vars(n):
            return n
        if isinstance(n, N.Apply) and n.fn == fname:
            arg = transform(n.arg, visit)
            return subst_var(body, binder, arg)
        if (isinstance(n, (N.ForallFn, N.ForallFinite)) and n.var in names
                and fname in free_vars(n.body)):
            return expand_fn(_rename_binder(n, names), fname, binder, body)
        return None

    return transform(node, visit)


def rewrite_ground(node, pattern: N.Expr, replacement: N.Expr):
    """Replace every subtree structurally equal to ``pattern``, renaming a
    binder that would capture a free name of ``replacement``."""
    names = free_vars(pattern)
    inserted = free_vars(replacement)

    def visit(n):
        if isinstance(n, N.Expr):
            # An expression binds no name: a match needs all of the
            # pattern's names free in it.
            if not names <= free_vars(n):
                return n
            if N.ast_eq(n, pattern):
                return replacement
        elif (isinstance(n, (N.ForallFn, N.ForallFinite)) and n.var in inserted
                and names <= free_vars(n.body)):
            return rewrite_ground(_rename_binder(n, inserted), pattern,
                                  replacement)
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


class Substitution:
    """Variable definitions ``x ↦ rhs`` in the order they were recorded,
    applied to a tree only when the tree is read.

    A tree's position is the number of entries the log had when the tree was
    made.  Reading it at that position gives what rewriting it with
    :func:`subst_var` by each later entry in turn would give, in one
    simultaneous pass: a free ``x`` becomes the right-hand side of the first
    later entry for ``x``, itself read at the position after that entry
    (up to the names given to renamed binders).  Each right-hand side is
    stored as it read when its entry was recorded.  A log never changes
    (``then`` returns a longer one), so its reads are memoised, and
    ``translations`` holds the ring translator's memo of each entry (for
    one unit database).
    """

    def __init__(self, entries: tuple[tuple[str, N.Expr], ...] = ()):
        self.entries = entries
        self.translations: dict = {}
        self._pending: dict = {}  # at -> (name -> entry index, names)
        self._rhs: dict = {}  # j -> entry j's right-hand side, read

    def __len__(self) -> int:
        return len(self.entries)

    def then(self, name: str, rhs: N.Expr) -> "Substitution":
        return Substitution(self.entries + ((name, rhs),))

    def pending(self, at: int) -> tuple[dict[str, int], frozenset[str]]:
        """Each name a tree at position ``at`` reads through, to the index
        of its first entry from ``at`` on; and the set of those names."""
        found = self._pending.get(at)
        if found is None:
            first = {}
            for j in range(len(self.entries) - 1, at - 1, -1):
                first[self.entries[j][0]] = j
            found = self._pending[at] = first, frozenset(first)
        return found

    def rhs(self, j: int) -> N.Expr:
        """Entry ``j``'s right-hand side, read at position ``j + 1``."""
        e = self._rhs.get(j)
        if e is None:
            e = self._rhs[j] = self.read(self.entries[j][1], j + 1)
        return e

    def read(self, node, at: int):
        """``node``, made at position ``at``, with the later entries applied."""
        first, names = self.pending(at)

        def visit(n):
            if free_vars(n).isdisjoint(names):
                return n
            if isinstance(n, N.Var):
                return self.rhs(first[n.name])
            if not isinstance(n, (N.ForallFn, N.ForallFinite)):
                return None
            if n.var in names:
                # The binder stops the entries for its name; the others
                # rewrite the quantifier in turn, as subst_var would have,
                # renaming the binder where a right-hand side names it.
                for name, rhs in self.entries[at:]:
                    n = subst_var(n, name, rhs)
                return n
            inserted = frozenset().union(*(
                free_vars(self.rhs(first[x])) for x in free_vars(n) & names))
            if n.var in inserted:
                return self.read(_rename_binder(n, inserted | names), at)
            return None

        return node if not names else transform(node, visit)

    def bindings(self) -> dict[str, N.Expr]:
        """Each defined name's last entry, read: the value that rewriting
        every earlier definition with each later one would leave it."""
        last = {name: j for j, (name, _) in enumerate(self.entries)}
        return {name: self.rhs(j) for name, j in last.items()}
