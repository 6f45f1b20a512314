"""iwrank: exact analytic Iwasawa invariants for Rankin-Selberg products
at Eisenstein primes.

Layers, bottom up: exact number-field and p-adic arithmetic (numfield, its
Q(zeta_n) case cyclotomic, padics), Dirichlet characters (characters),
q-expansions and Eisenstein machinery (qseries, newforms), weight-2 modular
symbols (modsym), the Iwasawa algebra at finite precision (iwasawa), p-adic
L-values and branch series (padic_l), and the command line (cli).
"""

__version__ = "0.1.0"
