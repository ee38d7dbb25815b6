# Pins the one-variant commands byte for byte: the stdout of `lll
# analyze isx skl` (the method on one stage, with its TMA line and
# recipe) and of `lll walk` on isx/skl and hpcg/knl (the recipe loop to
# convergence) must equal tests/golden/run_commands.txt.
# Run via: cmake -DLLL_BIN=... -DREPO_ROOT=... -DGOLDEN_DIR=...
#                -DWORK_DIR=... -P run_commands.cmake

include(${CMAKE_CURRENT_LIST_DIR}/capture.cmake)

capture(analyze isx skl)
capture(walk isx skl)
capture(walk hpcg knl)
compare_golden(run_commands.txt)
