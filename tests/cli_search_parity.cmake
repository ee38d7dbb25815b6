# `lll search` and a v2 `serve` search line are two front ends over one
# SearchSpec: the same space must give byte-equal frontiers, and each
# shared knob's out-of-range value must be rejected by both.
# Run via: cmake -DLLL_BIN=... -DREPO_ROOT=... -DWORK_DIR=...
#                -P cli_search_parity.cmake

# A private profile store, so the candidate profiles the search
# characterizes stay out of the source tree.
set(profiles "${WORK_DIR}/parity_profiles")
file(REMOVE_RECURSE ${profiles})
file(COPY ${REPO_ROOT}/data/profiles/ DESTINATION ${profiles}
     FILES_MATCHING PATTERN "*.profile")
set(ENV{LLL_PROFILE_DIR} ${profiles})

set(cli_args search isx skl --cores 6 --warmup-us 5 --measure-us 10
             --axis l2_mshrs=8:16:*2)
set(serve_line "{\"schema_version\": 2, \"kind\": \"search\", \"id\": \"s1\", \"platform\": \"skl\", \"workload\": \"isx\", \"cores\": 6, \"warmup_us\": 5, \"measure_us\": 10, \"axes\": [\"l2_mshrs=8:16:*2\"]}")

# The text of the "frontier": [...] array in @p text (its rows hold no
# nested arrays, so the first ']' closes it).
function(frontier_of text out)
    string(FIND "${text}" "\"frontier\": [" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no frontier in:\n${text}")
    endif()
    string(SUBSTRING "${text}" ${at} -1 rest)
    string(FIND "${rest}" "]" end)
    string(SUBSTRING "${rest}" 0 ${end} frontier)
    set(${out} "${frontier}" PARENT_SCOPE)
endfunction()

# The first run characterizes the candidates; both compared runs then
# read the same stored profiles.
execute_process(COMMAND ${LLL_BIN} ${cli_args}
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR "cold lll search: exit ${got}")
endif()
set(cli_json "${WORK_DIR}/parity_cli.json")
execute_process(COMMAND ${LLL_BIN} ${cli_args} --json ${cli_json}
                RESULT_VARIABLE got OUTPUT_QUIET ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR "lll search --json: exit ${got}")
endif()
file(READ ${cli_json} cli_text)
frontier_of("${cli_text}" cli_frontier)

set(batch "${WORK_DIR}/parity_batch.jsonl")
file(WRITE ${batch} "${serve_line}\n")
execute_process(COMMAND ${LLL_BIN} serve --batch ${batch}
                RESULT_VARIABLE got OUTPUT_VARIABLE serve_text
                ERROR_QUIET)
if(NOT got EQUAL 0)
    message(FATAL_ERROR "serve search: exit ${got}:\n${serve_text}")
endif()
frontier_of("${serve_text}" serve_frontier)
if(NOT cli_frontier STREQUAL serve_frontier)
    message(FATAL_ERROR "frontiers differ:\n  lll search: "
                        "${cli_frontier}\n  serve:      ${serve_frontier}")
endif()

# One out-of-range value per shared knob, in both spellings.
set(knobs cores=-1 seed=-1 warmup_us=-1 measure_us=-1 bank_weight=-1
          max_candidates=0)
set(lines "")
foreach(knob ${knobs})
    string(REPLACE "=" ";" pair ${knob})
    list(GET pair 0 name)
    list(GET pair 1 value)
    string(REPLACE "_" "-" flag "--${name}")
    execute_process(COMMAND ${LLL_BIN} search isx skl --axis l2_mshrs=8,16
                            ${flag} ${value}
                    RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT got EQUAL 2)
        message(FATAL_ERROR "lll search ${flag} ${value}: expected exit 2 "
                            "(invalid argument), got ${got}:\n${err}")
    endif()
    string(APPEND lines "{\"schema_version\": 2, \"kind\": \"search\", "
           "\"platform\": \"skl\", \"workload\": \"isx\", \"axes\": "
           "[\"l2_mshrs=8,16\"], \"${name}\": ${value}}\n")
endforeach()
file(WRITE ${batch} "${lines}")
execute_process(COMMAND ${LLL_BIN} serve --batch ${batch}
                OUTPUT_VARIABLE serve_text ERROR_QUIET)
string(REGEX MATCHALL "\"code\": \"invalid-argument\"" rejected
       "${serve_text}")
list(LENGTH rejected n)
list(LENGTH knobs want)
if(NOT n EQUAL want)
    message(FATAL_ERROR "serve rejected ${n} of ${want} out-of-range "
                        "knobs:\n${serve_text}")
endif()
