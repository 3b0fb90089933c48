"""heunic: multi-route evaluation of Heun-type functions and indices of
coincidence, with exact and numerical verification harnesses.

``heunic.routes.TARGETS`` lists the routes of each target, and the
``heunic crosscheck`` command compares the routes of every target that has
two or more; ``heunic.relations`` and ``heunic.identities`` check the
functional relations and the exact identities behind the routes.

``import heunic`` loads no submodule: each public name below imports its
submodule on first use, so that a process pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "closed_forms": (
        "FamilyParamsNeg", "FamilyParamsPos", "eval_family_negative",
        "eval_family_positive", "eval_sample_family", "pochhammer",
    ),
    "coincidence": (
        "EntropyKind", "FMethod", "GMethod", "entropy", "eval_F", "eval_G",
        "eval_HC_family", "eval_K", "eval_K_derivative", "k_derivative_quadrature",
    ),
    "errors": ("DivergentSeriesError", "DomainError", "PoleError", "UnknownRelationError"),
    "hypergeom": (
        "Clausen3F2Params", "Gauss2F1Params", "clausen_3f2_unit", "coefficient_a",
        "eval_hl_hypergeometric", "gauss_2f1", "gauss_2f1_closed", "harmonic",
    ),
    "identities": (
        "IDENTITY_A_SITES", "IDENTITY_B_SITES", "IdentityCheck", "Mutation",
        "binomial_exact", "check_identity_A", "check_identity_B",
    ),
    "relations": ("RELATION_IDS", "RelationReport", "check_relation"),
    "series": (
        "ConfluentHeunParams", "DEFAULT_OPTIONS", "EvalResult", "GeneralHeunParams",
        "SeriesOptions", "confluent_ode_residual", "eval_confluent_derivatives",
        "eval_confluent_heun", "eval_heun_derivatives", "eval_heun_local",
        "heun_ode_residual", "heun_slope_at_origin", "transform_homotopy",
    ),
}
_SUBMODULES = ("cli", "routes", *_EXPORTS)
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use (PEP 562)."""
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
