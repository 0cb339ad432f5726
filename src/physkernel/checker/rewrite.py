"""Capture-aware rewriting over expression and proposition trees.

Every rewrite here (:func:`subst_var`, :func:`expand_fn`,
:func:`rewrite_ground` and :meth:`Substitution.read`) is a rule over one
fold, ``_rewrite``, which keeps the one binder rule: a rewrite reaches only
the free occurrences of its names.  A subtree in which none of them is
free, by the free-variable set each node caches, is returned unchanged in
O(1).  A quantifier hides the name it binds from its body.  A quantifier
whose bound name is free in what would be inserted in its body has that
name renamed to ``<name>!<k>``, a name the parser never reads.
:class:`Substitution` records variable definitions and applies them only to
the trees that are read.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Callable, Iterable

from ..lang import nodes as N
from ..record import replace

_BINDERS = (N.ForallFn, N.ForallFinite)


def _keep(n):
    return n


def _rebuild_one(n, new):
    (f,) = n._children
    return n if new is getattr(n, f) else replace(n, **{f: new})


def _rebuild_two(n, new_f, new_g):
    # A class with two children has no other field but its span.
    f, g = n._children
    if new_f is getattr(n, f) and new_g is getattr(n, g):
        return n
    return n.__class__(new_f, new_g, n.span)


#: Fold rules that rebuild a node whose children changed and return any
#: other node as is.
REBUILD = {cls: (_keep, _rebuild_one, _rebuild_two)[len(cls._children)]
           for cls in N.NODES}


def transform(node, fn: Callable):
    """Rebuild an expression or a proposition bottom-up, applying ``fn(node)``
    at each level.

    ``fn`` returns either a replacement node (taken as-is, not descended into;
    returning ``node`` itself keeps the subtree) or None to keep the node with
    its children transformed.  A node none of whose children changed is
    returned as is.
    """
    return N.fold(node, REBUILD, dict.fromkeys(N.NODES, fn))


def _free(n, *sets) -> frozenset[str]:
    """free_vars's rule: a node's set, from its children's, stored on the
    node, where the ``pre`` reads it back, so a tree is walked once."""
    cls = n.__class__
    if cls is N.Var:
        names = frozenset((n.name,))
    else:
        names = sets[0] if len(sets) == 1 else frozenset().union(*sets)
        if cls is N.Apply or cls is N.Deriv:
            names = names | {n.fn}
        elif cls in _BINDERS:
            names = names - {n.var}
    n.__dict__["_free_vars"] = names
    return names


_FREE_RULES = dict.fromkeys(N.NODES, _free)
_FREE_PRE = dict.fromkeys(N.NODES, lambda n: n.__dict__.get("_free_vars"))


def free_vars(node) -> frozenset[str]:
    """Names of free variables (including function heads in Apply/Deriv).

    Built bottom-up from the children's sets and cached on each node.
    """
    cached = node.__dict__.get("_free_vars")
    if cached is not None:
        return cached
    return N.fold(node, _FREE_RULES, _FREE_PRE)


def _rewrite(node, names: frozenset[str], leaf: Callable | None,
             inserted: Callable, rules: dict = REBUILD):
    """Rewrite the free occurrences of ``names`` in ``node`` by the binder
    rule (see the module docstring).

    ``leaf(n, names)``, when given, rewrites a node other than a quantifier
    in which one of ``names`` is free, as ``transform``'s ``fn`` does.
    ``inserted(hit)`` is the set of names free in what rewriting the names
    ``hit`` inserts.  ``rules`` rebuild every other node from its rewritten
    children.  A quantifier's body is rewritten by a nested call, without
    the name it binds; only quantifiers nested in one another, which the
    parser's depth budget bounds, nest these calls.
    """
    if free_vars(node).isdisjoint(names):
        return node

    def visit(n):
        free = free_vars(n)
        if free.isdisjoint(names):
            return n
        if n.__class__ not in _BINDERS:
            return None if leaf is None else leaf(n, names)
        avoid = inserted(names & free)
        if n.var in avoid:  # to <var>!<k>, free in neither body nor avoid
            taken, k = free_vars(n.body) | avoid, 1
            while f"{n.var}!{k}" in taken:
                k += 1
            fresh = f"{n.var}!{k}"
            n = replace(n, var=fresh,
                        body=subst_var(n.body, n.var, N.Var(fresh)))
        body = _rewrite(n.body, names - {n.var}, leaf, inserted, rules)
        return n if body is n.body else replace(n, body=body)

    return N.fold(node, rules, dict.fromkeys(N.NODES, visit))


def subst_var(node, name: str, replacement: N.Expr):
    """Substitute ``replacement`` for every free occurrence of variable
    ``name``."""
    inserted = free_vars(replacement)
    return _rewrite(
        node, frozenset((name,)),
        lambda n, _: replacement if n.__class__ is N.Var else None,
        lambda _: inserted)


def expand_fn(node, fname: str, binder: str, body: N.Expr):
    """Unfold the free ``fname`` applications: ``fname(arg)`` becomes
    ``body[binder := arg]``.

    An application is unfolded once its argument is expanded, so nested
    applications unfold in one pass.  ``body`` must not apply ``fname``.
    """
    inserted = free_vars(body) - {binder}

    def apply(n, arg):
        if n.fn == fname:
            return subst_var(body, binder, arg)
        return n if arg is n.arg else replace(n, arg=arg)

    return _rewrite(node, frozenset((fname,)), None, lambda _: inserted,
                    {**REBUILD, N.Apply: apply})


def rewrite_ground(node, pattern: N.Expr, replacement: N.Expr):
    """Replace every subtree structurally equal to ``pattern`` in which the
    pattern's names are free."""
    names = free_vars(pattern)
    inserted = free_vars(replacement)

    def leaf(n, live):
        # A match needs every name of the pattern free, here and above.
        if live != names or not names <= free_vars(n):
            return n
        if isinstance(n, N.Expr) and N.ast_eq(n, pattern):
            return replacement
        return None

    return _rewrite(node, names, leaf,
                    lambda hit: inserted if hit == names else frozenset())


def applied_fns(node) -> frozenset[str]:
    """Function names applied (as Apply or Deriv heads) free in ``node``.

    Cached on the node, as ``free_vars`` is, so a tree is walked once.
    """
    cached = node.__dict__.get("_applied_fns")
    if cached is None:
        cached = node.__dict__["_applied_fns"] = free_vars(node) & {
            n.fn for n in N.walk(node) if isinstance(n, (N.Apply, N.Deriv))}
    return cached


def definition_order(deps: dict[str, frozenset[str]]) -> list[str]:
    """Kahn's algorithm: the names ``deps`` defines (each to the names its
    definition mentions), each before those it mentions, the earliest first
    among those ready.  A name on a cycle, or that one mentions, is left
    out."""
    names = list(deps)
    position = {name: k for k, name in enumerate(names)}
    waiting = [0] * len(names)  # definitions left that mention each name
    for mentioned in deps.values():
        for d in mentioned & deps.keys():
            waiting[position[d]] += 1
    ready = [k for k, n in enumerate(waiting) if not n]  # a heap
    order = []
    while ready:
        order.append(names[heapq.heappop(ready)])
        for d in deps[order[-1]] & deps.keys():
            waiting[position[d]] -= 1
            if not waiting[position[d]]:
                heapq.heappush(ready, position[d])
    return order


class Substitution:
    """Variable definitions ``x ↦ rhs`` in the order they were recorded,
    applied to a tree only when the tree is read.

    A tree's position is the number of entries the log had when the tree was
    made.  Reading it at that position gives what rewriting it with
    :func:`subst_var` by each later entry in turn would give, in one
    simultaneous pass: a free ``x`` becomes the right-hand side of the first
    later entry for ``x``, itself read at the position after that entry
    (up to the names given to renamed binders).  Each right-hand side is
    stored as it read when its entry was recorded, and the log is the only
    place a consumed definition of a variable lives: a function or ground
    definition rewrites the trees a later step reads, each read first up to
    the current position, and never an entry.

    A log never changes: ``then`` returns a longer one, and the logs grown
    from one root form a trie, so ``then`` with an entry it was given
    before (the same name and the same right-hand side object) returns the
    child it made then.  The search, the replay of its script and sibling
    ``split`` or ``cases`` branches that record the same entries share one
    log, and with it the log's memos of pure functions:

    - ``read``, by tree object and position;
    - ``translations``, the ring translator's memo of each entry, and
      ``differences``, its memo of ``translate_difference`` by both side
      objects and position, errors included (for the one unit database of
      the statement the root log was prepared for).

    Trees compare by identity, so a memo keyed on a tree object finds only
    that object.

    The entry memos (``rhs`` and ``translations``) are filled by ``fill``:
    an entry is computed only where a read or a translation reaches it, and
    only after the entries it reaches, so no read or translation recurses
    and a read through an early entry costs only the entries it reaches.

    The logs of a trie stay alive as long as its root, so a line of first
    children shares one list of entries and one index, which maps each name
    to its entries' positions, ascending: ``first`` is a ``bisect``, and a
    read looks up only its tree's free names.  The first child of a log
    appends to both, and a log ignores what lies past its length; a second,
    different child copies the log's part.  A chain of n entries costs
    memory linear in n.
    """

    def __init__(self, entries: tuple[tuple[str, N.Expr], ...] = ()):
        self._entries = list(entries)
        self._len = len(entries)
        self.translations: dict = {}
        self.differences: dict = {}
        self._rhs: dict = {}  # j -> entry j's right-hand side, read
        self._reads: dict = {}  # (tree, at) -> its read
        self._children: dict = {}  # (name, rhs) -> the child
        self._index: dict[str, list[int]] = {}
        for j, (name, _) in enumerate(entries):
            self._index.setdefault(name, []).append(j)

    def __len__(self) -> int:
        return self._len

    @property
    def entries(self) -> tuple[tuple[str, N.Expr], ...]:
        """The entries, ``(name, rhs)``, in the order they were recorded."""
        return tuple(self._entries[:self._len])

    def entry(self, j: int) -> tuple[str, N.Expr]:
        """Entry ``j`` as recorded, for ``j < len(self)``."""
        return self._entries[j]

    def then(self, name: str, rhs: N.Expr) -> "Substitution":
        child = self._children.get((name, rhs))
        if child is not None:
            return child
        at, entries, index = self._len, self._entries, self._index
        if self._children:
            entries = entries[:at]
            index = {x: p[:bisect_left(p, at)] for x, p in index.items()}
        entries.append((name, rhs))
        index.setdefault(name, []).append(at)
        child = Substitution()
        child._entries, child._len, child._index = entries, at + 1, index
        self._children[name, rhs] = child
        return child

    def first(self, name: str, at: int) -> int | None:
        """The position of the first entry for ``name`` from ``at`` on."""
        positions = self._index.get(name, ())
        k = bisect_left(positions, at)
        if k < len(positions) and positions[k] < self._len:
            return positions[k]
        return None

    def fill(self, memo: dict, roots: Iterable[int],
             value: Callable[[int], object]) -> None:
        """Set ``memo[k] = value(k)`` for each entry ``k`` that ``memo``
        lacks among ``roots`` and the entries they reach.  Entry ``k``
        reaches ``first(y, k + 1)`` for each name ``y`` free in it, a later
        entry, and what that one reaches; computed from the last back, each
        entry comes after the entries it reaches."""
        reached, stack = set(), [k for k in roots if k not in memo]
        while stack:
            k = stack.pop()
            if k not in reached:
                reached.add(k)
                stack += [j for y in free_vars(self._entries[k][1])
                          if (j := self.first(y, k + 1)) is not None
                          and j not in memo]
        for k in sorted(reached, reverse=True):
            memo[k] = value(k)

    def rhs(self, j: int) -> N.Expr:
        """Entry ``j``'s right-hand side, read at position ``j + 1``."""
        self.fill(self._rhs, (j,),
                  lambda k: self._read(self._entries[k][1], k + 1))
        return self._rhs[j]

    def read(self, node, at: int):
        """``node``, made at position ``at``, with the later entries applied."""
        if at == self._len:
            return node
        hit = self._reads.get((node, at))
        if hit is None:
            hit = self._reads[node, at] = self._read(node, at)
        return hit

    def _read(self, node, at: int):
        entry = {x: j for x in free_vars(node)
                 if (j := self.first(x, at)) is not None}

        def leaf(n, _):
            return self.rhs(entry[n.name]) if n.__class__ is N.Var else None

        def inserted(hit):
            return frozenset().union(
                *(free_vars(self.rhs(entry[x])) for x in hit))

        return _rewrite(node, frozenset(entry), leaf, inserted)
