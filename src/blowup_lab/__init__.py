"""blowup_lab: numerical laboratory for blow-up of weakly coupled damped
wave systems with scattering-producing damping."""
