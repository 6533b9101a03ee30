"""Decision ladder and machine-checkable verdict reports.

Ladder: certified structural obstructions first (dimension identity, stored
two-isotropic-part splits, theta search over registered and coordinate
decompositions), then the form solver (witness search, symbolic determinant,
Monte Carlo refutation). Every outcome carries a certificate payload that
`reverify_report` can recheck offline from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import RunConfig
from .forms import (
    NondegeneracyVerdict,
    SymForm,
    decide_nondegenerate,
    invariant_form_space,
    signature,
    trial_point,
    verify_form,
    _det_polynomial,
)
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    format_rational,
    matrix_from_json,
    matrix_to_json,
    subspace_from_json,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)
from .liealg import LieAlgebra, relative_series
from .obstructions import (
    Decomposition,
    DimSeriesCertificate,
    HeisenbergReiterCertificate,
    ThetaCertificate,
    dim_series_obstruction,
    heisenberg_reiter_obstruction,
    theta_search,
)


class SoundnessError(RuntimeError):
    """An obstruction certificate and an exact witness coexist: impossible."""


@dataclass(frozen=True)
class AnalysisResult:
    algebra: LieAlgebra
    lower_dims: tuple[int, ...]
    upper_dims: tuple[int, ...]
    nilpotency_class: int | None
    obstruction: DimSeriesCertificate | ThetaCertificate | HeisenbergReiterCertificate | None
    solver: NondegeneracyVerdict | None

    @property
    def kind(self) -> str:
        if self.solver is not None and self.solver.admits:
            return "admits"
        if self.obstruction is not None:
            return "refuted_obstruction"
        if self.solver is not None:
            return self.solver.kind
        return "undecided"

    @property
    def admits(self) -> bool:
        return self.kind == "admits"

    @property
    def decided(self) -> bool:
        return self.kind != "undecided"


def decide(
    g: LieAlgebra,
    config: RunConfig | None = None,
    theta_decompositions=(),
    hr_pairs=(),
    solver: str = "auto",
) -> AnalysisResult:
    """Run the ladder. solver: auto (skip when obstructed or above the dim
    cap), always (cross-check mode, still capped), never (obstructions only)."""
    config = config or RunConfig()
    rep = relative_series(g, g.full_space())
    klass = rep.nilpotency_class()

    obstruction = dim_series_obstruction(g, rep)
    if obstruction is None and klass == 2:
        for v1, v2 in hr_pairs:
            cert = heisenberg_reiter_obstruction(g, v1, v2)
            if isinstance(cert, HeisenbergReiterCertificate):
                obstruction = cert
                break
    if obstruction is None and g.dim > 0 and rep.descending_term(1).dim < g.dim:
        obstruction = theta_search(g, theta_decompositions, config.theta_budget)

    verdict = None
    want_solver = solver == "always" or (solver == "auto" and obstruction is None)
    if want_solver and g.dim <= config.solver_dim_cap:
        space = invariant_form_space(g)
        verdict = decide_nondegenerate(space, config)
        if verdict.admits:
            check = verify_form(g, verdict.witness)
            if not check.ok:
                raise SoundnessError(f"witness failed exact re-verification: {check}")
            if obstruction is not None:
                raise SoundnessError(
                    "obstruction certificate coexists with a verified witness"
                )

    return AnalysisResult(
        g, rep.descending_dims, rep.ascending_dims, klass, obstruction, verdict
    )


# ------------------------------------------------------------------ reports


def certificate_payload(result: AnalysisResult) -> dict:
    ob = result.obstruction
    if result.kind == "admits":
        v = result.solver
        return {
            "kind": "admits",
            "witness": matrix_to_json(v.witness.matrix),
            "signature": list(signature(v.witness)),
            "seed": v.seed,
            "trials": v.trials,
            "mc_range": v.mc_range,
            "notes": v.notes,
        }
    if isinstance(ob, DimSeriesCertificate):
        return {
            "kind": "dim_series",
            "j": ob.j,
            "dim_descending": ob.dim_descending,
            "dim_ascending": ob.dim_ascending,
            "dim": ob.dim,
        }
    if isinstance(ob, ThetaCertificate):
        return {
            "kind": "theta",
            "description": ob.decomposition.description,
            "parts": [subspace_to_json(p) for p in ob.decomposition.parts],
            "theta": subspace_to_json(ob.theta),
            "witness_vector": vector_to_json(ob.witness),
        }
    if isinstance(ob, HeisenbergReiterCertificate):
        return {
            "kind": "heisenberg_reiter",
            "v1": subspace_to_json(ob.v1),
            "v2": subspace_to_json(ob.v2),
        }
    if result.kind == "refuted_symbolic":
        return {
            "kind": "refuted_symbolic",
            "notes": result.solver.notes,
        }
    if result.kind == "refuted_monte_carlo":
        v = result.solver
        return {
            "kind": "refuted_monte_carlo",
            "seed": v.seed,
            "trials": v.trials,
            "mc_range": v.mc_range,
            "bound": format_rational(v.bound),
        }
    notes = "no obstruction found and the solver did not run"
    if result.solver is not None:
        notes = result.solver.notes
    return {"kind": "undecided", "notes": notes}


def build_report(
    result: AnalysisResult,
    config: RunConfig,
    descriptor: dict,
    extra: dict | None = None,
    timings: dict | None = None,
) -> dict:
    report = {
        "input": descriptor,
        "config": config.echo(),
        "algebra": {
            **algebra_to_json(result.algebra),
            "nilpotency_class": result.nilpotency_class,
            "lower_central_dims": list(result.lower_dims),
            "upper_central_dims": list(result.upper_dims),
        },
        "verdict": {
            "kind": result.kind,
            "certificate": certificate_payload(result),
        },
    }
    if extra:
        report.update(extra)
    if timings is not None:
        report["timings"] = timings
    return report


# the certificate kinds each verdict kind may carry
CERTIFICATE_KINDS = {
    "admits": ("admits",),
    "refuted_obstruction": ("dim_series", "theta", "heisenberg_reiter"),
    "refuted_symbolic": ("refuted_symbolic",),
    "refuted_monte_carlo": ("refuted_monte_carlo",),
    "undecided": ("undecided",),
}


def reverify_report(report: dict) -> tuple[bool, str]:
    """Recompute a report's certificate from its stored payload alone."""
    try:
        g = algebra_from_json(report["algebra"])
        verdict = report["verdict"]
        cert = verdict["certificate"]
        kind = cert["kind"]
        if kind not in CERTIFICATE_KINDS.get(verdict["kind"], ()):
            return False, (
                f"verdict {verdict['kind']!r} does not match certificate kind {kind!r}"
            )
        return _reverify(g, cert, kind)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed report payload: {exc}"


def _reverify(g: LieAlgebra, cert: dict, kind: str) -> tuple[bool, str]:

    if kind == "admits":
        witness = SymForm(matrix_from_json(cert["witness"], g.dim))
        check = verify_form(g, witness)
        if not check.ok:
            return False, f"stored witness fails exact verification: {check.reason}"
        if list(signature(witness)) != cert["signature"]:
            return False, "stored signature does not match the witness"
        return True, "witness re-verified: invariant and nondegenerate"

    if kind == "dim_series":
        ob = DimSeriesCertificate(
            cert["j"], cert["dim_descending"], cert["dim_ascending"], cert["dim"]
        )
        ok = ob.verify(g)
        return ok, "dimension-series certificate recomputed" if ok else "dimension-series certificate failed"

    if kind == "theta":
        parts = tuple(subspace_from_json(p) for p in cert["parts"])
        decomposition = Decomposition(
            parts, g.commutator_subspace(), cert.get("description", "")
        )
        theta = subspace_from_json(cert["theta"])
        witness = vector_from_json(cert["witness_vector"], g.dim)
        ob = ThetaCertificate(decomposition, theta, witness)
        ok = ob.verify(g)
        return ok, "theta certificate recomputed" if ok else "theta certificate failed"

    if kind == "heisenberg_reiter":
        v1 = subspace_from_json(cert["v1"])
        v2 = subspace_from_json(cert["v2"])
        ob = heisenberg_reiter_obstruction(g, v1, v2)
        ok = isinstance(ob, HeisenbergReiterCertificate)
        return ok, "isotropic-split certificate recomputed" if ok else f"hypotheses fail: {ob.reason}"

    if kind == "refuted_symbolic":
        space = invariant_form_space(g)
        if space.dim == 0:
            return True, "no nonzero invariant form exists"
        poly = _det_polynomial(space)
        if poly:
            return False, "symbolic determinant is not identically zero"
        return True, "determinant polynomial re-expanded to zero"

    if kind == "refuted_monte_carlo":
        seed, trials, span = cert["seed"], cert["trials"], cert["mc_range"]
        if span < 1:
            raise ValueError(f"mc_range must be at least 1, got {span}")
        if trials < 1 or Fraction(g.dim, span) >= 1:
            return False, "failure bound (dim/range)^trials is not below 1: nothing is refuted"
        space = invariant_form_space(g)
        for t in range(trials):
            if not space.singular_at(trial_point(seed, t, space.dim, span)):
                return False, f"replayed trial {t} found a nonzero determinant"
        expected = Fraction(g.dim, span) ** trials
        if format_rational(expected) != cert["bound"]:
            return False, "stored failure bound does not match (dim/range)^trials"
        return True, f"replayed {trials} zero determinants; bound checks out"

    if kind == "undecided":
        return True, "nothing to verify for an undecided report"
    return False, f"unknown certificate kind {kind!r}"
