# Golden-file test for `lll lint` text and JSON reports.  Lint is a pure
# function of the static platform/workload tables (no profile, no event
# queue), so its output is byte-reproducible and any drift is a
# deliberate diagnostic change — regenerate with:
#   lll lint isx skl            > tests/golden/lint_feasible.txt
#   lll lint isx skl 4-ht       > tests/golden/lint_infeasible.txt
#   lll lint isx skl --json tests/golden/lint_feasible.json
#   lll lint isx skl 4-ht --json tests/golden/lint_infeasible.json
# and (from inside tests/golden/ so the subject stays a relative path):
#   lll lint --profile profile_bad.txt > lint_profile.txt
#   lll lint --profile profile_bad.txt --json lint_profile.json
# Run via: cmake -DLLL_BIN=... -DGOLDEN_DIR=... -DWORK_DIR=... -P lint_golden.cmake

function(check_case name expected_exit)
    set(json "${WORK_DIR}/lint_golden_${name}.json")
    execute_process(COMMAND ${LLL_BIN} lint ${ARGN} --json ${json}
                    RESULT_VARIABLE got_exit
                    OUTPUT_VARIABLE got_text
                    ERROR_QUIET)
    if(NOT got_exit EQUAL ${expected_exit})
        message(FATAL_ERROR "lll lint ${ARGN}: expected exit "
                            "${expected_exit}, got ${got_exit}")
    endif()

    file(READ "${GOLDEN_DIR}/lint_${name}.txt" want_text)
    if(NOT got_text STREQUAL want_text)
        file(WRITE "${WORK_DIR}/lint_golden_${name}.txt" "${got_text}")
        message(FATAL_ERROR
            "lll lint ${ARGN}: text differs from golden "
            "${GOLDEN_DIR}/lint_${name}.txt (actual saved to "
            "${WORK_DIR}/lint_golden_${name}.txt)")
    endif()

    file(READ "${json}" got_json)
    file(READ "${GOLDEN_DIR}/lint_${name}.json" want_json)
    if(NOT got_json STREQUAL want_json)
        message(FATAL_ERROR
            "lll lint ${ARGN}: JSON differs from golden "
            "${GOLDEN_DIR}/lint_${name}.json (actual in ${json})")
    endif()
endfunction()

check_case(feasible 0 isx skl)
check_case(infeasible 3 isx skl 4-ht)

# Profile lint runs from inside GOLDEN_DIR so the diagnostics' subject
# stays the relative fixture path and the report is machine-independent.
function(check_profile_case name expected_exit fixture)
    set(json "${WORK_DIR}/lint_golden_${name}.json")
    execute_process(COMMAND ${LLL_BIN} lint --profile ${fixture}
                            --json ${json}
                    WORKING_DIRECTORY ${GOLDEN_DIR}
                    RESULT_VARIABLE got_exit
                    OUTPUT_VARIABLE got_text
                    ERROR_QUIET)
    if(NOT got_exit EQUAL ${expected_exit})
        message(FATAL_ERROR "lll lint --profile ${fixture}: expected "
                            "exit ${expected_exit}, got ${got_exit}")
    endif()

    file(READ "${GOLDEN_DIR}/lint_${name}.txt" want_text)
    if(NOT got_text STREQUAL want_text)
        file(WRITE "${WORK_DIR}/lint_golden_${name}.txt" "${got_text}")
        message(FATAL_ERROR
            "lll lint --profile ${fixture}: text differs from golden "
            "${GOLDEN_DIR}/lint_${name}.txt (actual saved to "
            "${WORK_DIR}/lint_golden_${name}.txt)")
    endif()

    file(READ "${json}" got_json)
    file(READ "${GOLDEN_DIR}/lint_${name}.json" want_json)
    if(NOT got_json STREQUAL want_json)
        message(FATAL_ERROR
            "lll lint --profile ${fixture}: JSON differs from golden "
            "${GOLDEN_DIR}/lint_${name}.json (actual in ${json})")
    endif()
endfunction()

check_profile_case(profile 0 profile_bad.txt)

# A profile path with a quote and a backslash must come out escaped,
# so the report parses and the path reads back unchanged.
set(odd_name "a\"b\\c.txt")
file(COPY_FILE ${GOLDEN_DIR}/profile_bad.txt "${WORK_DIR}/${odd_name}")
set(odd_json "${WORK_DIR}/lint_golden_odd_path.json")
execute_process(COMMAND ${LLL_BIN} lint --profile ${odd_name}
                        --json ${odd_json}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE odd_exit
                OUTPUT_QUIET ERROR_QUIET)
if(NOT odd_exit EQUAL 0)
    message(FATAL_ERROR "lll lint --profile '${odd_name}': expected exit "
                        "0, got ${odd_exit}")
endif()
file(READ "${odd_json}" odd_doc)
string(JSON odd_path ERROR_VARIABLE odd_error
       GET "${odd_doc}" data profiles 0 path)
if(odd_error)
    message(FATAL_ERROR "lll lint --profile '${odd_name}': report is not "
                        "valid JSON (${odd_error}):\n${odd_doc}")
endif()
if(NOT odd_path STREQUAL odd_name)
    message(FATAL_ERROR "lll lint --profile '${odd_name}': path read "
                        "back as '${odd_path}'")
endif()
