# Pins the paper tables byte for byte: the stdout of `lll reproduce
# --jobs 4` (Tables IV-IX with the recipe column and agreement lines)
# and of `lll sweep --jobs 4` (every walk plus the unit/row/cache
# summary line) must equal tests/golden/paper_tables.txt.
# Run via: cmake -DLLL_BIN=... -DREPO_ROOT=... -DGOLDEN_DIR=...
#                -DWORK_DIR=... -P paper_tables.cmake

include(${CMAKE_CURRENT_LIST_DIR}/capture.cmake)

capture(reproduce --jobs 4)
capture(sweep --jobs 4)
compare_golden(paper_tables.txt)
