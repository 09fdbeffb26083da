"""Bubble solution families of a semilinear elliptic half-space system.

Construction of the classified solution parameters, evaluation of the
explicit solutions, and numerical verification of the structure around
them: sphere-inversion symmetry at the critical radius, conformal
transport to a ball, the radial profile system, and the one-dimensional
nonexistence certificate.
"""
