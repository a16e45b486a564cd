"""radonlab: a numerical laboratory for discrete polynomial averaging
operators, truncated singular sums, r-variation seminorms, Gauss sums and
the major-arc approximation, Ionescu-Wainger denominator sets, and dyadic
martingale inequalities.

Everything is desk-scale and exact where exactness is cheap: lattice
arithmetic uses Python integers, rational frequencies keep exact phases,
and every fitted constant is reported rather than silently assumed.
"""

__version__ = "0.1.0"
