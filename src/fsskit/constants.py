"""Physical constants, strict SI.

C0 is exact by definition of the metre.  EPS0 and MU0 are the CODATA 2022
recommended values, written out so that importing the package loads no
constants library; each equals ``scipy.constants`` (1.17.1) bit for bit,
which the test suite checks.
"""

C0 = 299792458.0          # speed of light, m/s
EPS0 = 8.8541878188e-12   # vacuum permittivity, F/m
MU0 = 1.25663706127e-06   # vacuum permeability, H/m

# Free-space wave impedance, ohm.  Pinned to the figure written into
# Touchstone option lines so exported files and internal port impedances
# agree digit for digit.
ETA0 = 376.730313
