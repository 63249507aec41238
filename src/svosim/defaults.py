"""Default experiment parameters.

Every value here is a configuration default that individual runs may
override.  Speed ceilings are deliberately absent: the max speed of the
controlled vehicles and the IDM desired speed are computed from the
scenario's lead-vehicle speed profile when the scenario is loaded.
"""

ACTUATION_LAG_S = 0.45
STEP_S = 0.1
HORIZON_STEPS = 30

MIN_GAP_M = 5.0           # standstill clearance, also the hard minimum gap
MAX_GAP_M = 45.0
AV_TIME_HEADWAY_S = 1.2
ACCEL_MIN = -3.0
ACCEL_MAX = 3.0
CONTROL_MIN = -4.0
CONTROL_MAX = 4.0
SPEED_MIN = 0.0

IDM_MAX_ACCEL = 2.0
IDM_COMFORT_DECEL = 2.0
IDM_MIN_SPACING = 3.0
IDM_TIME_GAP_S = 1.0
IDM_EXPONENT = 4.0

DEFAULT_SPEED_LIMIT = 25.0

# Synthetic driver-weight profile (accel, desired-speed, relative-speed,
# relative-distance).  Not estimated from any dataset; see README.
DEFAULT_WEIGHTS = (0.1, 0.5, 0.5, 1.0)
HUMAN_TIME_HEADWAY_S = 1.5

PENALTY_WEIGHT = 1.0e4    # quadratic state-constraint penalty, solver-side
SMOOTH_EPS = 1.0e-5       # |.| smoothing half-width of the driver's solves
HEADWAY_SPEED_FLOOR = 0.5 # samples at or below this speed carry no headway
