"""Acceptance gate: ten numbered criteria with pinned values and tolerances.

Each ``test_criterion_NN_*`` function checks one acceptance criterion; the
``pytest -v`` line for it doubles as the per-criterion pass/fail record, and
the session summary (see conftest.py) prints a verdict table.

Tolerances are pinned per criterion:

* criteria 1, 3, 4, 5, 8 — exact rational equality, no tolerance;
* criterion 2 — the cube-root subterm may be compared structurally or
  numerically at 50 significant digits within 1e-30 relative;
* criterion 6 — branch algebra is validated by an independent symbolic
  substitution oracle (sympy) before the prover's verdict is trusted;
* criterion 7 — dimension vectors compared exactly;
* criteria 9, 10 — structural (sample counts, byte equality), plus the
  suite runtime budget, which the session summary reports.

The soundness fuzz (criterion 9) attempts to falsify each Proved golden
entry with at least 100 randomized instantiations.  Strategy per entry:

* fully determined statements (capacitance, point charges, gas ratio,
  crate friction) — derive the forced environment from the definitional
  hypotheses, check it satisfies every hypothesis and the goal, then
  perturb one variable per round and require that either some hypothesis
  fails or the goal still holds;
* two-block identity — sample the free masses, propagate definitions,
  and require the goal at every sample;
* kinematics coefficients — bind the claimed motion constants and require
  the asserted function equality pointwise at random times;
* banked-curve cases — sample geometry and friction, construct the
  critical speed, verify every hypothesis numerically, and require both
  quantified branches of the goal;
* the capstan entry is not Proved (dimcheck-only tier), so it is exempt
  from the fuzz by definition.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from physkernel.checker.dims import check_dimensions, resolve_statement
from physkernel.checker.evaluate import eval_numeric, eval_prop
from physkernel.checker.prover import Proved, auto_prove
from physkernel.checker.ring import (
    poly_atoms, poly_coeff_eqs, ring_equal,
)
from physkernel.checker.script import CaseSplit, NumericCheck, RingCheck
from physkernel.corpus import load_corpus
from physkernel.errors import PhysKernelError
from physkernel.harness import (
    BuiltinProver, EvalReport, aggregate, improvement_delta, percent,
    run_eval,
)
from physkernel.harness import EntryResult
from physkernel.lang import nodes as N
from physkernel.lang.parser import parse_statement
from physkernel.quantity import (
    REL_TOL, Approx, Quantity, compare_values, dec_cos, dec_sin,
)
from physkernel.checker.rewrite import subst_var

from oracles import poly_eval

N_FUZZ_ROUNDS = 100


@pytest.fixture(scope="module")
def corpus(db, corpus_dir):
    return {e.name: e for e in load_corpus(corpus_dir, db)}


# -- shared fuzz machinery -----------------------------------------------------------


def forced_env(stmt, db, seed_env=None):
    """Propagate definitional hypotheses to a full variable binding."""
    env = dict(seed_env or {})
    progress = True
    while progress:
        progress = False
        for _, prop in stmt.hyps:
            if not (isinstance(prop, N.Eq) and isinstance(prop.lhs, N.Var)):
                continue
            name = prop.lhs.name
            if name in env:
                continue
            try:
                env[name] = eval_numeric(prop.rhs, env, db)
            except PhysKernelError:
                continue
            progress = True
    return env


def hyps_hold(stmt, env, db):
    """True when every numerically evaluable hypothesis holds under env."""
    for _, prop in stmt.hyps:
        if isinstance(prop, (N.ForallFn, N.ForallFinite)):
            continue
        try:
            truth, _ = eval_prop(prop, env, db)
        except PhysKernelError:
            return False  # a hypothesis became unevaluable (pole, domain)
        if not truth:
            return False
    return True


def goal_holds(stmt, env, db):
    truth, _ = eval_prop(stmt.goal, env, db)
    return truth


def perturbation_fuzz(entry, db, seed):
    """Forced-env + perturbation fuzz for fully determined statements."""
    stmt = resolve_statement(entry.statement, db)
    env = forced_env(stmt, db)
    declared = [d.name for d in stmt.decls if isinstance(d, N.VarDecl)]
    assert set(env) == set(declared), f"{entry.name}: env not fully forced"
    assert hyps_hold(stmt, env, db) and goal_holds(stmt, env, db)

    rng = random.Random(seed)
    for _ in range(N_FUZZ_ROUNDS):
        name = rng.choice(declared)
        delta = Fraction(rng.randint(1, 99), rng.randint(1, 9))
        if rng.random() < 0.5:
            delta = -delta
        bumped = dict(env)
        bumped[name] = env[name].add(Quantity(delta, env[name].dim))
        # Soundness: any environment satisfying the hypotheses must satisfy
        # the goal.  Perturbed environments are expected to break a
        # hypothesis; if one slips through, the goal has to hold there.
        assert (not hyps_hold(stmt, bumped, db)) or goal_holds(stmt, bumped, db), (
            f"{entry.name}: hypotheses admit {name} shifted by {delta} "
            "but the goal fails there")


# -- criterion 1: exact capacitance ---------------------------------------------------


def test_criterion_01_capacitance_exact_and_fast(db, corpus):
    entry = corpus["parallel_plate_capacitance"]
    started = time.perf_counter()
    verdict = auto_prove(entry.statement, db)
    elapsed = time.perf_counter() - started
    assert isinstance(verdict, Proved)
    assert elapsed < 1.0, f"proof took {elapsed:.3f}s"

    stmt = resolve_statement(entry.statement, db)
    env = forced_env(stmt, db)
    cap = env["C"]
    assert cap.value == Fraction(1, 125_000_000_000)  # exact, no tolerance
    assert isinstance(cap.value, Fraction)
    assert cap.dim == db.kind("Capacitance")


# -- criterion 2: exact gas ratio, approximate cube root ------------------------------


def test_criterion_02_gas_ratio_exact_cube_root_tolerance(db, corpus):
    entry = corpus["ideal_gas_volume_ratio"]
    stmt = resolve_statement(entry.statement, db)
    env = forced_env(stmt, db)

    ratio = env["V2"].div(env["V1"]).val()
    assert ratio == Fraction(10_832_250, 144_739)  # exact rational equality

    started = time.perf_counter()
    verdict = auto_prove(entry.statement, db)
    elapsed = time.perf_counter() - started
    assert isinstance(verdict, Proved)
    assert elapsed < 1.0, f"proof took {elapsed:.3f}s"
    assert verdict.approx_decided  # the cube root is the only approximation

    # Pinned tolerance for the rpow subterm: 50 digits, 1e-30 relative.
    k = env["k"].value
    target = eval_numeric(stmt.goal.rhs, {}, db).value
    assert isinstance(k, Approx) and k.precision == 50
    assert REL_TOL == Fraction(1, 10**30)
    cmp = compare_values(k, target)
    assert cmp.equal


# -- criterion 3: exact friction coefficients -----------------------------------------


def test_criterion_03_friction_coefficients_exact(db, corpus):
    entry = corpus["crate_friction_coefficients"]
    verdict = auto_prove(entry.statement, db)
    assert isinstance(verdict, Proved)

    env = forced_env(resolve_statement(entry.statement, db), db)
    assert env["μ_s"].value == Fraction(46, 100)  # 0.46 exactly
    assert env["μ_k"].value == Fraction(40, 100)  # 0.40 exactly
    assert isinstance(env["μ_s"].value, Fraction)
    assert isinstance(env["μ_k"].value, Fraction)


# -- criterion 4: rearrangement closes by ring reasoning alone ------------------------


def test_criterion_04_rearrangement_pure_ring(db, corpus):
    entry = corpus["two_block_acceleration_identity"]
    stmt = entry.statement

    # The rearranged right-hand sides are ring-equal under the definition.
    vars_ = {d.name: d.kind for d in stmt.decls}
    ha = dict(stmt.hyps)["ha"]
    goal_first = stmt.goal.lhs  # a = (m_2/(m_1+m_2)) * g
    assert ring_equal(goal_first.lhs, goal_first.rhs,
                      env={ha.lhs.name: ha.rhs}, db=db)
    del vars_

    verdict = auto_prove(stmt, db)
    assert isinstance(verdict, Proved)
    assert verdict.eval_count == 0  # zero numeric evaluation
    assert not any(isinstance(s, NumericCheck) for s in verdict.steps)
    assert any(isinstance(s, RingCheck) for s in verdict.steps)


# -- criterion 5: coefficient matching pins the motion constants ----------------------


def test_criterion_05_kinematics_coefficients_exact(db, corpus):
    entry = corpus["uniform_acceleration_coefficients"]
    stmt = entry.statement
    hyps = dict(stmt.hyps)

    # Directly: matching coefficients of t between the two position
    # profiles, then substituting a = 6 and v_0 = -2 (units at their
    # coherent scale) must kill every constraint exactly.
    match = poly_coeff_eqs(hyps["hx"].body.rhs, hyps["hxx"].body.rhs, "t",
                           db=db)
    assert [eq.degree for eq in match.eqs] == [2, 1]
    solution = {"a": Fraction(6), "v_0": Fraction(-2)}
    for eq in match.eqs:
        poly = eq.poly
        env = {}
        for atom in poly_atoms(poly):
            rank, name = atom
            env[atom] = solution.get(name, Fraction(1))
        assert poly_eval(poly, env) == 0, eq.render()

    verdict = auto_prove(stmt, db)
    assert isinstance(verdict, Proved)
    assert not verdict.approx_decided  # the constants come out exact


# -- criterion 6: case split validated by an independent oracle -----------------------


def branch_oracle():
    """Solve each friction-limit branch symbolically, without the prover.

    Treats sin θ and cos θ as opaque symbols (exactly as the ring engine
    does) and checks that substituting the force definitions into the
    branch antecedent yields the advertised critical speed.
    """
    import sympy

    m, R, g, mu, s, c, v2 = sympy.symbols("m R g mu s c v2", positive=True)
    r = s * R
    f = m * (s * g - c * v2 / r)
    nforce = m * (c * g + s * v2 / r)
    verdicts = []
    for eps in (1, -1):
        antecedent = sympy.Eq(f, eps * mu * nforce)
        solutions = sympy.solve(antecedent, v2)
        claimed = (s - eps * mu * c) * g * (s * R) / (c + eps * mu * s)
        verdicts.append(
            len(solutions) == 1
            and sympy.simplify(solutions[0] - claimed) == 0)
    return verdicts


def test_criterion_06_case_split_with_branch_oracle(db, corpus):
    # The oracle validates the per-branch algebra first; only then is the
    # prover's verdict meaningful to assert.
    assert branch_oracle() == [True, True]

    entry = corpus["friction_circular_motion_cases"]
    verdict = auto_prove(entry.statement, db)
    assert isinstance(verdict, Proved)
    splits = [s for s in verdict.steps if isinstance(s, CaseSplit)]
    assert splits and splits[0].values == (Fraction(1), Fraction(-1))
    assert sum(isinstance(s, RingCheck) for s in verdict.steps) >= 2
    assert verdict.eval_count == 0


# -- criterion 7: capstan dimensions and a seeded fault -------------------------------


def test_criterion_07_capstan_homogeneous_and_mutant_caught(db, corpus):
    entry = corpus["rope_friction_turns"]
    report = check_dimensions(entry.statement, db)
    assert report.homogeneous
    assert {e.label for e in report.entries} == {
        "h_pos", "hM_gt_m", "T_light", "T_heavy", "wrap_differential",
        "wrap_integral", "theta_def", "goal"}

    # Seed one fault: drop the g factor from the light-end tension.
    assert entry.text.count("T(0) = m * g") == 1
    mutated = entry.text.replace("T(0) = m * g", "T(0) = m")
    bad = parse_statement(mutated, db)
    bad_report = check_dimensions(bad, db)
    flagged = [e for e in bad_report.entries if not e.homogeneous]
    assert len(flagged) == 1
    assert flagged[0].label == "T_light"
    mismatch = flagged[0].mismatch
    force = db.kind("Force")
    mass = db.kind("Mass")
    assert mismatch.expected == force
    assert mismatch.found == mass


# -- criterion 8: aggregation arithmetic ----------------------------------------------


def table_report(model, basic, intermediate, advanced):
    results = []
    for level, (passed, total) in (("basic", basic),
                                   ("intermediate", intermediate),
                                   ("advanced", advanced)):
        for i in range(total):
            results.append(EntryResult(f"{level}_{i:03d}", "mechanics",
                                       level, "auto", i < passed, 1))
    return EvalReport(model, 1, tuple(results))


def test_criterion_08_aggregation_exact(db):
    by_level, overall = aggregate(
        [("basic", i < 9) for i in range(104)]
        + [("intermediate", i < 18) for i in range(62)]
        + [("advanced", i < 2) for i in range(34)])
    assert overall == Fraction(29, 200)
    assert percent(29, 200) == "14.50%"
    assert by_level == {"basic": Fraction(9, 104),
                        "intermediate": Fraction(18, 62),
                        "advanced": Fraction(2, 34)}
    assert percent(9, 104) == "8.65%"
    assert percent(18, 62) == "29.03%"
    assert percent(2, 34) == "5.88%"

    by_level2, overall2 = aggregate(
        [("basic", i < 33) for i in range(104)]
        + [("intermediate", i < 46) for i in range(62)]
        + [("advanced", False) for _ in range(34)])
    assert overall2 == Fraction(79, 200)
    assert percent(79, 200) == "39.50%"
    assert percent(33, 104) == "31.73%"
    assert percent(46, 62) == "74.19%"
    assert percent(0, 34) == "0.00%"

    before = table_report("m", (9, 104), (18, 62), (2, 34))
    after = table_report("m", (33, 104), (46, 62), (0, 34))
    assert improvement_delta(before, after) == {
        "basic": "+23.08%", "intermediate": "+45.16%",
        "advanced": "-5.88%", "overall": "+25.00%"}


# -- criterion 9: property-suite sample counts and soundness fuzz ---------------------


def test_criterion_09_property_suite_sample_counts():
    import test_dimension
    import test_parser
    import test_quantity
    import test_ring

    assert test_dimension.N_GROUP_LAW_CASES >= 1000
    assert test_quantity.N_HOMOMORPHISM_CASES >= 1000
    assert test_parser.N_ROUNDTRIP_CASES >= 500
    assert test_ring.N_RING_ORACLE_CASES >= 500
    assert N_FUZZ_ROUNDS >= 100


@pytest.mark.parametrize("name,seed", [
    ("parallel_plate_capacitance", 0x11),
    ("point_charges_force_on_axis", 0x22),
    ("ideal_gas_volume_ratio", 0x33),
    ("crate_friction_coefficients", 0x44),
])
def test_criterion_09_soundness_fuzz_determined(db, corpus, name, seed):
    perturbation_fuzz(corpus[name], db, seed)


def test_criterion_09_soundness_fuzz_two_block(db, corpus):
    entry = corpus["two_block_acceleration_identity"]
    stmt = resolve_statement(entry.statement, db)
    mass = db.kind("Mass")
    rng = random.Random(0x55)
    for _ in range(N_FUZZ_ROUNDS):
        seed_env = {
            "m_1": Quantity(Fraction(rng.randint(1, 400), rng.randint(1, 9)),
                            mass),
            "m_2": Quantity(Fraction(rng.randint(1, 400), rng.randint(1, 9)),
                            mass),
        }
        env = forced_env(stmt, db, seed_env)
        assert hyps_hold(stmt, env, db)
        assert goal_holds(stmt, env, db), f"counterexample: {seed_env}"


def test_criterion_09_soundness_fuzz_kinematics(db, corpus):
    entry = corpus["uniform_acceleration_coefficients"]
    stmt = resolve_statement(entry.statement, db)
    hyps = dict(stmt.hyps)
    second = db.kind("Time")
    env = {
        "t_0": Quantity(Fraction(0), second),
        "t_1": Quantity(Fraction(4), second),
        "dt": Quantity(Fraction(4), second),
        "a": Quantity(Fraction(6), db.kind("Acceleration")),
        "v_0": Quantity(Fraction(-2), db.kind("Speed")),
        "v_1": Quantity(Fraction(22), db.kind("Speed")),
    }
    # The claimed constants must satisfy the plain hypotheses...
    for label in ("ht0", "ht1", "ht", "ha"):
        truth, exact = eval_prop(hyps[label], env, db)
        assert truth and exact, label
    # ...and the asserted function equality pointwise, at random times.
    xf_body = hyps["hx"].body.rhs
    xf1_body = hyps["hxx"].body.rhs
    vf_body = hyps["hv"].body.rhs
    rng = random.Random(0x66)
    for _ in range(N_FUZZ_ROUNDS):
        t = Quantity(Fraction(rng.randint(-900, 900), rng.randint(1, 30)),
                     second)
        at_t = dict(env)
        at_t["t"] = t
        left = eval_numeric(xf_body, at_t, db)
        right = eval_numeric(xf1_body, at_t, db)
        assert left.compare(right).equal, (
            f"position profiles disagree at t = {t.value}")
    # hv1 ties v_1 to the speed profile at dt.
    at_dt = dict(env)
    at_dt["t"] = env["dt"]
    assert eval_numeric(vf_body, at_dt, db).compare(env["v_1"]).equal
    assert goal_holds(stmt, env, db)


def test_criterion_09_soundness_fuzz_banked_curve(db, corpus):
    entry = corpus["friction_circular_motion_cases"]
    stmt = resolve_statement(entry.statement, db)
    hyps = dict(stmt.hyps)
    goal = stmt.goal
    assert isinstance(goal, N.ForallFinite)
    consequent_rhs = goal.body.rhs.rhs  # the critical-speed expression

    mass, length, speed = (db.kind(k) for k in ("Mass", "Length", "Speed"))
    rng = random.Random(0x77)
    rounds = 0
    while rounds < N_FUZZ_ROUNDS:
        theta = Fraction(rng.randint(10, 140), 100)     # inside (0, π/2)
        mu = Fraction(rng.randint(1, 200), 100)
        env = {
            "m": Quantity(Fraction(rng.randint(1, 300), rng.randint(1, 7)),
                          mass),
            "R": Quantity(Fraction(rng.randint(1, 500), rng.randint(1, 9)),
                          length),
            "θ": Quantity.scalar(theta),
            "μ": Quantity.scalar(mu),
        }
        env["r"] = eval_numeric(dict(stmt.hyps)["r_def"].rhs, env, db)
        # Construct the critical speed from the ε = +1 branch formula.
        v2 = eval_numeric(subst_var(consequent_rhs, goal.var,
                                    N.NumLit(Fraction(1))), env, db)
        if not (v2.value.value > 0 if isinstance(v2.value, Approx)
                else v2.value > 0):
            continue  # friction exceeds the slope; no critical speed here
        env["v"] = v2.pow(Fraction(1, 2))
        env["f"] = eval_numeric(hyps["f_def"].rhs, env, db)
        env["N"] = eval_numeric(hyps["N_def"].rhs, env, db)
        rounds += 1
        assert hyps_hold(stmt, env, db), (
            f"constructed environment violates a hypothesis at "
            f"θ={theta}, μ={mu}")
        for eps in (Fraction(1), Fraction(-1)):
            branch = subst_var(goal.body, goal.var, N.NumLit(eps))
            truth, _ = eval_prop(branch, env, db)
            assert truth, f"branch ε={eps} fails at θ={theta}, μ={mu}"
    assert rounds == N_FUZZ_ROUNDS


# -- criterion 10: deterministic evaluation reports -----------------------------------


def test_criterion_10_eval_reports_byte_identical(db, corpus_dir):
    entries = load_corpus(corpus_dir, db)
    first, _ = run_eval(entries, BuiltinProver(db), k=1, db=db)
    second, _ = run_eval(entries, BuiltinProver(db), k=1, db=db)
    assert first.to_json() == second.to_json()
    assert first.to_json().encode("utf-8") == second.to_json().encode("utf-8")
    # And the serialized form is machine-readable and timing-free.
    obj = json.loads(first.to_json())
    assert obj["corpus_size"] == len(entries)
    assert "wall" not in first.to_json()
