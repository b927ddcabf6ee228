"""Physical constants used throughout the library.

All values are CODATA 2018 and are expressed in SI units. The module is
deliberately tiny: every other module imports from here so that the whole
library agrees on a single set of constants.
"""

#: Faraday constant [C/mol] — charge carried by one mole of electrons.
FARADAY = 96485.33212

#: Universal gas constant [J/(mol*K)].
GAS_CONSTANT = 8.314462618
