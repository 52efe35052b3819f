"""Simulation and exact-numerics laboratory for dreidel variants."""
