# Pins the CLI's help surface byte for byte (DESIGN.md §17.5): `lll
# --help`, every command's `lll <cmd> --help` page and the stdout of the
# three static tables (platforms, workloads, vendors) must equal
# tests/golden/cli_help.txt.  A deliberate change regenerates the golden
# from the file this script writes on a mismatch.
# Run via: cmake -DLLL_BIN=... -DGOLDEN_DIR=... -DWORK_DIR=... -P cli_help.cmake

set(text "")

# capture(<arg> ...): `lll <arg> ...` exits 0; append "$ lll <args>"
# and its stdout to text.
macro(capture)
    execute_process(COMMAND ${LLL_BIN} ${ARGN}
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

capture(--help)
foreach(cmd platforms workloads vendors characterize analyze trace walk
            table sweep reproduce roofline selftest lint audit serve
            search bench-serve profile)
    capture(${cmd} --help)
endforeach()
foreach(cmd platforms workloads vendors)
    capture(${cmd})
endforeach()

set(actual "${WORK_DIR}/cli_help.txt")
file(WRITE ${actual} "${text}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN_DIR}/cli_help.txt ${actual}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
            "CLI help drifted from ${GOLDEN_DIR}/cli_help.txt; compare "
            "with ${actual}:\n${text}")
endif()

# -h is the short spelling, and help mode wins over what would
# otherwise be usage errors around it.
execute_process(COMMAND ${LLL_BIN} search -h
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR "lll search -h: expected exit 0, got ${got}")
endif()
execute_process(COMMAND ${LLL_BIN} analyze --help --bogus
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR
            "lll analyze --help --bogus: help must win (exit 0), "
            "got ${got}")
endif()

# The bare forms print the command index and exit 0.
foreach(form help --help -h)
    execute_process(COMMAND ${LLL_BIN} ${form}
                    RESULT_VARIABLE got
                    OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT got EQUAL 0)
        message(FATAL_ERROR
                "lll ${form}: expected exit 0, got ${got}")
    endif()
    if(NOT out MATCHES "search")
        message(FATAL_ERROR
                "lll ${form}: command index does not list search:\n"
                "${out}")
    endif()
endforeach()
