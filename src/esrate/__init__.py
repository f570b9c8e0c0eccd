"""esrate: a simulation and verification lab for the elitist (1+1) evolution
strategy with success-based step-size adaptation on strongly convex objectives.

The package simulates the exact chain, estimates empirical convergence rates
on quadratic benchmark families, evaluates the theoretical rate-bound
constants numerically, and verifies the supporting probabilistic
inequalities by Monte Carlo.
"""

__version__ = "0.1.0"
