# The stdout goldens' shared steps (paper_tables.cmake,
# run_commands.cmake), run from the source tree so the committed X-Mem
# profiles are used.  Expects LLL_BIN, REPO_ROOT, GOLDEN_DIR, WORK_DIR.

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

# compare_golden(<name>): text must equal ${GOLDEN_DIR}/<name>; on a
# mismatch the actual text stays in ${WORK_DIR}/<name>, from which a
# deliberate change regenerates the golden.
function(compare_golden name)
    set(actual "${WORK_DIR}/${name}")
    file(WRITE ${actual} "${text}")
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${GOLDEN_DIR}/${name} ${actual}
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "stdout drifted from ${GOLDEN_DIR}/${name}; "
                            "compare with ${actual}")
    endif()
endfunction()
