# Pins the paper tables byte for byte: the stdout of `lll reproduce
# --jobs 4` (Tables IV-IX with the recipe column and agreement lines)
# and of `lll sweep --jobs 4` (every walk plus the unit/row/cache
# summary line), run from the source tree so the committed X-Mem
# profiles are used, must equal tests/golden/paper_tables.txt.  A
# deliberate change regenerates the golden from the file this script
# writes on a mismatch.
# Run via: cmake -DLLL_BIN=... -DREPO_ROOT=... -DGOLDEN_DIR=...
#                -DWORK_DIR=... -P paper_tables.cmake

set(text "")

# capture(<arg> ...): `lll <arg> ...` exits 0 from the source tree;
# append "$ lll <args>" and its stdout to text.
macro(capture)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            --unset=LLL_PROFILE_DIR ${LLL_BIN} ${ARGN}
                    WORKING_DIRECTORY ${REPO_ROOT}
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT got EQUAL 0)
        message(FATAL_ERROR
                "lll ${ARGN}: expected exit 0, got ${got}\n${out}${err}")
    endif()
    string(JOIN " " line ${ARGN})
    string(APPEND text "$ lll ${line}\n${out}")
endmacro()

capture(reproduce --jobs 4)
capture(sweep --jobs 4)

set(actual "${WORK_DIR}/paper_tables.txt")
file(WRITE ${actual} "${text}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN_DIR}/paper_tables.txt ${actual}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
            "paper tables drifted from ${GOLDEN_DIR}/paper_tables.txt; "
            "compare with ${actual}")
endif()
