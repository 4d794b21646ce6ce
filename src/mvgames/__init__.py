"""Strategic games as logical games over many-valued standard algebras.

Exact rational truth values throughout: algebras and formulas, logical games
and their equilibrium encodings, game representations, and brute-force
oracles that cross-check everything.
"""

from .algebra import Algebra, catalog_lookup, format_rational, is_subreduct, parse_rational
from .chars import characteristic, mcnaughton_hat, pseudo_char, zeta
from .corpus import CorpusBundle, love_and_hate, matching_pennies, new_technology, vickrey
from .equilibria import (MixedNEEncoding, PureNEEncoding, build_gamma, build_gamma_weak,
                         build_mixed_encoding, build_prob_distr, check_mixed_ne,
                         decide_pure_ne)
from .errors import EngineError, InputError, SemanticError
from .formula import (App, Const, Formula, Subst, Var, evaluate, free_variables, parse,
                      substitute, to_text)
from .game import (GameFlags, LogicalGame, MixedProfile, StrategicGame, classify,
                   dirac, logical_to_strategic, payoff, relevant_elements)
from .oracle import (MixedCandidate, affine_invariance_check, expected_payoffs,
                     find_mixed_2p, pure_ne_scan, verify_mixed)
from .represent import (Affine, Representation, Table, VerificationReport,
                        represent_binary_boolean, represent_binary_chain,
                        represent_binary_general, represent_general,
                        represent_rational_gmc_delta, represent_rational_lm,
                        represent_rational_qg_delta, verify_representation)

__version__ = "0.1.0"
