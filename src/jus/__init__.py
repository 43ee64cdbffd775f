"""Justification logic with belief expansion over subset models.

Formulas carry evidence terms (t : A reads "t justifies A") and update
modalities ([C] A reads "A holds after announcing C"). This package parses
that language, evaluates it in finite subset models, checks Hilbert-style
proofs against constant specifications, builds derived proofs, and hunts
for bounded countermodels.
"""

from .model import ConstantSpec, SubsetModel, load_cs, load_model, save_model, validate_model
from .parse import SourceError, parse_formula, parse_term, print_formula, print_term
from .proof import (
    CheckFailure,
    Proof,
    ProofBuilder,
    ProofStep,
    check_proof,
    match_axiom,
    prove_box,
    prove_necessitation,
    prove_persistence_fo,
    prove_ramsey,
    taut_check,
)
from .semantics import EvalContext, evaluate, evidence_effective, holds, truth_set
from .explore import (
    ModelSignature,
    SearchReport,
    enumerate_models,
    find_countermodel,
    random_cs_model,
    signature_for,
    soundness_sweep,
)
from .syntax import (
    App,
    Constant,
    Formula,
    Implies,
    Justifies,
    Node,
    Not,
    Prop,
    Term,
    Up,
    Update,
    Variable,
    atm,
    conj,
    disj,
    equiv,
    falsum,
    length,
    subformulas,
)

__all__ = [n for n in dir() if not n.startswith("_")]
