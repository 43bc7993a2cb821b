"""Alternating-path relevance for clause sets.

Distances and bounded neighborhoods over propositional and first-order
clause sets, a relevance-restricted splitting solver, a set-of-support
resolution checker, clause splitting, and parsing/generation utilities.
The package root defines no names: import each from the module that
defines it, e.g. ``from altpath.dpll import dpll_rel``.
"""
