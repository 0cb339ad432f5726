"""Seeded inputs for the ``ring-stress`` and ``frontend-deep`` workloads.

Every operation is ``.phys`` text plus the answer the generator knows from
how it built the statement; the prover under test never supplies a known
answer.  Operations come in shuffled blocks with a fixed count per family
(runs measure whole blocks, and ``bench/run.py`` prints how many units
each family contributed), and sizes are spread evenly over their range
inside each block (stratified; the pow exponents are the same in every
block), so two seeds give nearly the same size distribution.  The
over-limit family, which fails today, runs only in the traced run, in a
fixed number of blocks, so the timed runs measure operations that succeed
and the failure count of a traced run does not depend on the seed or on
the host's speed.

Known answers (``Op.expect``):

``proved`` / ``refuted`` / ``unknown``
    the verdict ``auto_prove`` must reach; anything weaker counts as a
    failed operation, anything contradicting it is a wrong answer;
``homogeneous`` / ``inhomogeneous``
    the outcome of a dimension check alone;
``decided``
    the statement is true, and any verdict other than ``refuted`` or a
    typed ``PhysKernelError`` is acceptable (over-limit inputs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    family: str
    kind: str     # "prove" or "dims"
    expect: str
    text: str


# -- ring-stress --------------------------------------------------------------

#: Operations per family in one shuffled ring-stress block, and why each
#: family is there.
RING_BLOCK = {
    # (x+y)**n = (y+x)**n: translation and poly_mul dominate.  Pow units and
    # k=3 units (below) cost 40-110 ms and the chains far less, so
    # latency_p50_ms falls inside the pow cluster.
    "pow": 4,
    # y_i*z_i = y_{i-1} chains: elimination finds a trail early.
    "elim_chain": 2,
    # k unrelated a_i*b_i = c_i, goal a_0 = a_1: exhaustive search, then the
    # residual is rendered through sympy; ends Unknown.  k=4 costs ~0.8 s
    # and is the top 2/9 of the block, so latency_p90_ms falls near the
    # middle of its cluster, as latency_p50_ms does in the pow cluster.
    # The block is this small (about 2 s) so that a run of whole blocks
    # ends close to its deadline.
    "unrelated_k3": 1,
    "unrelated_k4": 2,
}
POW_RANGE = (45, 75)
ELIM_CHAIN_RANGE = (2, 6)  # within the prover's default elimination depth


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers covering [lo, hi] evenly, one per stratum."""
    width = (hi - lo + 1) / count
    return [lo + int(width * i + rng.random() * width) for i in range(count)]


# Statements use fixed variable names: the names' string hashes alone move
# the cost of one statement by a tenth or more, which would drown the
# seed's variation (sizes, constants and order) in noise.

def pow_text(n: int) -> str:
    return (f"theorem pow_identity\n  (x y : Real)\n"
            f"  : (x + y)**{n} = (y + x)**{n}\n")


def elim_chain_text(links: int) -> str:
    names = [f"y{i:02d}" for i in range(2 * links + 2)]
    ys, zs = names[:links + 1], names[links + 1:]
    hyps = "".join(f"  (h{i} := {ys[i]} * {zs[i]} = {ys[i - 1]})\n"
                   for i in range(1, links + 1))
    goal = " * ".join([ys[links]] + [zs[i] for i in range(links, 0, -1)])
    return (f"theorem elimination_chain\n  ({' '.join(ys + zs[1:])} : Real)\n"
            f"{hyps}  : {goal} = {ys[0]}\n")


def unrelated_text(k: int) -> str:
    names = [f"a{i:02d}" for i in range(3 * k)]
    triples = [names[3 * i:3 * i + 3] for i in range(k)]
    hyps = "".join(f"  (h{i} := {a} * {b} = {c})\n"
                   for i, (a, b, c) in enumerate(triples))
    return (f"theorem unrelated_constraints\n  ({' '.join(names)} : Real)\n"
            f"{hyps}  : {triples[0][0]} = {triples[1][0]}\n")


def ring_block(rng: random.Random) -> list[Op]:
    ops = []
    # The same exponents in every block: a pow unit's cost grows steeply
    # with n, and latency_p50_ms falls among them, so a seeded jitter of n
    # would move it by several percent.  The seed still orders the block.
    lo, hi = POW_RANGE
    count = RING_BLOCK["pow"]
    for i in range(count):
        n = lo + (hi - lo) * (2 * i + 1) // (2 * count)
        ops.append(Op("pow", "prove", "proved", pow_text(n)))
    for links in _spread(rng, *ELIM_CHAIN_RANGE, RING_BLOCK["elim_chain"]):
        ops.append(Op("elim_chain", "prove", "proved", elim_chain_text(links)))
    for k in (3, 4):
        for _ in range(RING_BLOCK[f"unrelated_k{k}"]):
            ops.append(Op(f"unrelated_k{k}", "prove", "unknown",
                          unrelated_text(k)))
    rng.shuffle(ops)
    return ops


def ring_warmup() -> list[Op]:
    """One small operation per code path, the same for every seed."""
    return [Op("pow", "prove", "proved", pow_text(POW_RANGE[0])),
            Op("elim_chain", "prove", "proved", elim_chain_text(3)),
            Op("unrelated_k3", "prove", "unknown", unrelated_text(3))]


# -- frontend-deep ------------------------------------------------------------

#: Operations per family in one shuffled frontend-deep block, and why each
#: family is there.
FRONTEND_BLOCK = {
    # x + ... + x = n*x: parser, dims and the AST walks scale with n.
    "sum": 3,
    # v_i = (a/b)*v_{i-1} - c•meter, goal exact: subst_var and evaluation.
    "def_chain": 3,
    # the same chains with the goal one meter off: the refutation path.
    "def_chain_off": 3,
    # parse, resolve_statement and check_dimensions only, on chains and
    # sums.  With the mutants they are 60% of the block and cheaper than
    # every prove unit, so latency_p50_ms falls inside them (parser and
    # dims) and latency_p90_ms inside the prove units (rewrite, evaluate).
    "dims": 8,
    # the chains with one hypothesis's unit changed: the mismatch path.
    "dims_mutant": 7,
    # a 2000-3000 term sum: must end in a verdict or a typed error.  In
    # the traced run only (see the module docstring).
    "overlimit": 1,
}
SUM_RANGE = (50, 200)           # far below the stack-depth cliff near 450
OVERLIMIT_RANGE = (2000, 3000)  # far above it
DEF_CHAIN_RANGE = (5, 15)


def sum_text(n: int) -> str:
    return (f"theorem repeated_sum\n  (x : Length)\n"
            f"  : {' + '.join(['x'] * n)} = {n} * x\n")


def _literal(q: Fraction) -> str:
    return f"({q.numerator}/{q.denominator})"


def def_chain_text(length: int, rng: random.Random | None = None,
                   off: int = 0, mutate_at: int | None = None) -> str:
    """A ground definitional chain whose exact end value is computed here.

    ``off`` shifts the goal by that many meters (a false goal);
    ``mutate_at`` writes that hypothesis's offset in seconds (not
    homogeneous).
    """
    rng = rng or random.Random(0)
    names = [f"v{i:02d}" for i in range(length + 1)]
    value = Fraction(rng.randint(1, 9))
    hyps = [f"  (h0 := {names[0]} = {value} • meter)"]
    for i in range(1, length + 1):
        scale = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        shift = rng.randint(1, 9)
        unit = "second" if i == mutate_at else "meter"
        hyps.append(f"  (h{i} := {names[i]} = {_literal(scale)} * "
                    f"{names[i - 1]} - {shift} • {unit})")
        value = scale * value - shift
    return (f"theorem definitional_chain\n  ({' '.join(names)} : Length)\n"
            + "\n".join(hyps)
            + f"\n  : {names[length]} = {_literal(value + off)} • meter\n")


def frontend_block(rng: random.Random) -> list[Op]:
    ops = []
    for n in _spread(rng, *SUM_RANGE, FRONTEND_BLOCK["sum"]):
        ops.append(Op("sum", "prove", "proved", sum_text(n)))
    for length in _spread(rng, *DEF_CHAIN_RANGE, FRONTEND_BLOCK["def_chain"]):
        ops.append(Op("def_chain", "prove", "proved",
                      def_chain_text(length, rng)))
    for length in _spread(rng, *DEF_CHAIN_RANGE,
                          FRONTEND_BLOCK["def_chain_off"]):
        ops.append(Op("def_chain_off", "prove", "refuted",
                      def_chain_text(length, rng, off=1)))
    half = FRONTEND_BLOCK["dims"] // 2
    for n in _spread(rng, *SUM_RANGE, half):
        ops.append(Op("dims", "dims", "homogeneous", sum_text(n)))
    for length in _spread(rng, *DEF_CHAIN_RANGE,
                          FRONTEND_BLOCK["dims"] - half):
        ops.append(Op("dims", "dims", "homogeneous",
                      def_chain_text(length, rng)))
    for length in _spread(rng, *DEF_CHAIN_RANGE,
                          FRONTEND_BLOCK["dims_mutant"]):
        ops.append(Op("dims_mutant", "dims", "inhomogeneous",
                      def_chain_text(length, rng,
                                     mutate_at=rng.randint(1, length))))
    n = rng.randint(*OVERLIMIT_RANGE)
    ops.append(Op("overlimit", "prove", "decided", sum_text(n)))
    rng.shuffle(ops)
    return ops


def frontend_warmup() -> list[Op]:
    """One small operation per family; its cost does not depend on the seed."""
    rng = random.Random(0)
    return [Op("sum", "prove", "proved", sum_text(SUM_RANGE[0])),
            Op("def_chain", "prove", "proved", def_chain_text(5, rng)),
            Op("def_chain_off", "prove", "refuted",
               def_chain_text(5, rng, off=1)),
            Op("dims", "dims", "homogeneous", def_chain_text(5, rng)),
            Op("dims_mutant", "dims", "inhomogeneous",
               def_chain_text(5, rng, mutate_at=2)),
            Op("overlimit", "prove", "decided",
               sum_text(OVERLIMIT_RANGE[0]))]


#: workload -> (block generator, warm-up operations, operations per family)
BLOCKS = {"ring-stress": (ring_block, ring_warmup, RING_BLOCK),
          "frontend-deep": (frontend_block, frontend_warmup, FRONTEND_BLOCK)}


def block_size(workload: str, overlimit: bool) -> int:
    """Operations in one block of ``operations(..., overlimit=overlimit)``."""
    counts = BLOCKS[workload][2]
    return sum(n for f, n in counts.items() if overlimit or f != "overlimit")


def operations(workload: str, seed: int, part: int = 0,
               overlimit: bool = False):
    """Endless stream of operations for one measuring process of a run.

    ``overlimit`` adds the over-limit family (frontend-deep, traced run).
    """
    block = BLOCKS[workload][0]
    rng = random.Random(f"{workload}/{seed}/{part}")
    while True:
        yield from (op for op in block(rng)
                    if overlimit or op.family != "overlimit")
