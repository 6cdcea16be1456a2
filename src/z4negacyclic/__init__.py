"""Negacyclic codes over Z4 with an algebraic Lee-metric decoder."""

from .galois_ring import GaloisRing, RingElement, GaloisField, make_ring, graeffe_lift, negacyclic_root
from .negacyclic import (Code, build_code, encode, lee_weight, lee_distance,
                         min_distance_exhaustive, lambda_map, word_to_str, word_from_str)
from .keyeq import syndromes, odd_ratio_coefficients, key_series
from .solver import (PairVector, GroebnerBasis, SolutionNotFound,
                     solve_by_approximations, select_minimal_regular, minimal_regular)
from .decoder import DecodeOutcome, decode

__version__ = "0.1.0"
